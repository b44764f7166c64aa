"""The commitment phase.

Applies the write values of committed transactions to the in-memory
state in schedule order — commit groups in ascending sequence, where
transactions inside one group are pairwise conflict-free and may be
applied in any interleaving (we apply them in txid order, which equals
any concurrent interleaving precisely because they never touch the same
written address).  The updated state is then folded into the MPT and
flushed to the backing store, yielding the epoch's new state root.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.core.schedule import Schedule
from repro.errors import ExecutionError
from repro.node.executor import ConcurrentExecutor
from repro.obs.taxonomy import EDGE_DELTA_GUARD, UNKNOWN_PEER
from repro.obs.tracer import Tracer, maybe_span
from repro.state.statedb import StateDB
from repro.txn.rwset import Address
from repro.txn.transaction import Transaction
from repro.vm.native import ContractRegistry
from repro.vm.opcodes import WORD_MASK


@dataclass(frozen=True)
class CommitReport:
    """What the commitment phase produced.

    ``write_delta`` is the epoch's net effect on flat state — every
    address written, with its final committed value (last writer in
    group order wins).  It is the streaming engine's reconciliation
    set: a speculated transaction that read one of these addresses is
    re-executed.  Paths that execute against live state (serial
    execute-and-commit, lock waves) leave it ``None`` and list in
    ``reverted`` the transactions whose live execution reverted (no
    effects; they count as failed simulations).

    ``guard_aborted`` lists scheduled transactions the commit-time
    over/underflow guard rejected: folding their commutative deltas
    would have pushed some address outside ``[0, 2**64)``.  The check is
    a pure function of the schedule and the pre-epoch state, so every
    correct replica rejects the same set.  ``guard_edges`` attributes
    each of those aborts: txid -> ``(peer txid, address, "delta_guard")``
    where *address* is the first overflowing address in fold order and
    *peer* the last transaction whose write or delta moved its running
    value (``-1`` when the pre-epoch value alone overflowed).
    ``delta_commuted`` counts the delta units that actually committed on
    addresses carrying at least two of them — each was a write-write
    conflict saved by operation-level CC.
    """

    state_root: bytes
    committed_count: int
    group_count: int
    write_delta: "Mapping[Address, int] | None" = None
    guard_aborted: tuple[int, ...] = ()
    delta_commuted: int = 0
    guard_edges: "Mapping[int, tuple[int, Address, str]]" = field(
        default_factory=dict
    )
    reverted: tuple[int, ...] = ()


class _DeltaPlan:
    """Serial fold plan for one epoch's commutative deltas.

    Built once per commit: walks the schedule in group order keeping a
    running value for every delta-carrying address (plain writes replace
    it, deltas add to it) and guard-aborts any transaction whose fold
    would leave an address outside ``[0, 2**64)``.  The group-apply loop
    then skips planned addresses entirely — their final values install
    in one pass at the end, which is exactly what the serial walk
    computed.  Without deltas the plan is a transparent passthrough.
    """

    def __init__(
        self, write_values: Mapping[int, Mapping[Address, Any]]
    ) -> None:
        self._write_values = write_values
        self._addresses: frozenset[Address] = frozenset()
        self._aborted: frozenset[int] = frozenset()
        self.finals: dict[Address, int] = {}
        self.guard_aborted: tuple[int, ...] = ()
        self.guard_edges: dict[int, tuple[int, Address, str]] = {}
        self.delta_commuted = 0

    @classmethod
    def build(
        cls,
        schedule: Schedule,
        write_values: Mapping[int, Mapping[Address, Any]],
        delta_values: Mapping[int, Mapping[Address, int]] | None,
        state: StateDB,
    ) -> "_DeltaPlan":
        plan = cls(write_values)
        if not delta_values:
            return plan
        addresses: set[Address] = set()
        for group in schedule.iter_groups():
            for txid in group.txids:
                addresses.update(delta_values.get(txid, ()))
        if not addresses:
            return plan
        running = {address: state.get(address) for address in addresses}
        last_toucher: dict[Address, int] = {}
        touched: set[Address] = set()
        units: dict[Address, int] = {}
        aborted: list[int] = []
        for group in schedule.iter_groups():
            for txid in group.txids:
                deltas = delta_values.get(txid)
                overflowed = None
                if deltas:
                    for address, delta in deltas.items():
                        if not 0 <= running[address] + delta <= WORD_MASK:
                            overflowed = address
                            break
                if overflowed is not None:
                    aborted.append(txid)
                    plan.guard_edges[txid] = (
                        last_toucher.get(overflowed, UNKNOWN_PEER),
                        overflowed,
                        EDGE_DELTA_GUARD,
                    )
                    continue
                for address, value in write_values.get(txid, {}).items():
                    if address in addresses:
                        running[address] = int(value)
                        touched.add(address)
                        last_toucher[address] = txid
                if deltas:
                    for address, delta in deltas.items():
                        running[address] += delta
                        touched.add(address)
                        last_toucher[address] = txid
                        units[address] = units.get(address, 0) + 1
        plan._addresses = frozenset(addresses)
        plan._aborted = frozenset(aborted)
        plan.finals = {
            address: running[address] for address in sorted(touched)
        }
        plan.guard_aborted = tuple(aborted)
        plan.delta_commuted = sum(
            count for count in units.values() if count >= 2
        )
        return plan

    def surviving(self, txids: tuple[int, ...]) -> tuple[int, ...]:
        """A group's txids minus the guard-aborted ones."""
        if not self._aborted:
            return txids
        return tuple(txid for txid in txids if txid not in self._aborted)

    def writes_of(self, txid: int) -> Mapping[Address, Any]:
        """A transaction's plain writes minus planned delta addresses."""
        writes = self._write_values[txid]
        if not self._addresses:
            return writes
        return {
            address: value
            for address, value in writes.items()
            if address not in self._addresses
        }


class Committer:
    """Applies commit schedules to a :class:`~repro.state.statedb.StateDB`.

    Groups commit in sequence order; a group's members are pairwise
    conflict-free, so applying them in txid order equals any concurrent
    interleaving.
    """

    def __init__(self, tracer: Tracer | None = None) -> None:
        self.tracer = tracer

    def commit(
        self,
        schedule: Schedule,
        write_values: Mapping[int, Mapping[Address, Any]],
        state: StateDB,
        delta_values: Mapping[int, Mapping[Address, int]] | None = None,
    ) -> CommitReport:
        """Apply the writes of every committed transaction in group order.

        ``delta_values`` maps txid -> commutative deltas to fold at
        commit time.  Delta-carrying addresses are planned serially in
        schedule order first (running value per address, whole-transaction
        guard abort on word over/underflow), then plain writes apply
        group by group as before — minus the planned addresses, whose
        final folded values install at the end.
        """
        committed = 0
        delta: dict[Address, int] = {}
        plan = _DeltaPlan.build(schedule, write_values, delta_values, state)
        with maybe_span(self.tracer, "commit.apply_groups") as span:
            for group in schedule.iter_groups():
                for txid in group.txids:
                    if txid not in write_values:
                        raise ExecutionError(
                            f"committed T{txid} has no simulated write values"
                        )
                txids = plan.surviving(group.txids)
                # Across groups the later group overwrites, so the delta
                # ends at each address's last committed value.
                for txid in txids:
                    for address, value in plan.writes_of(txid).items():
                        delta[address] = int(value)
                        state.set(address, delta[address])
                committed += len(txids)
            for address, value in plan.finals.items():
                state.set(address, value)
                delta[address] = value
            span.set(committed=committed, groups=len(schedule.groups))
        with maybe_span(self.tracer, "commit.state_root") as span:
            root = state.commit()
            span.set(writes=len(delta))
        return CommitReport(
            state_root=root,
            committed_count=committed,
            group_count=len(schedule.groups),
            write_delta=delta,
            guard_aborted=plan.guard_aborted,
            delta_commuted=plan.delta_commuted,
            guard_edges=plan.guard_edges,
        )


class SerialExecutorCommitter:
    """The Serial baseline's combined execute-and-commit path.

    Executes each transaction against the *live* state (not a snapshot)
    and immediately applies its writes, exactly like today's DAG-based
    blockchains processing blocks one by one.  Reverted transactions
    leave no effects but still count as processed.
    """

    def __init__(self, registry: ContractRegistry | None = None, use_vm: bool = False) -> None:
        self.registry = registry
        self.executor = ConcurrentExecutor(registry=registry, use_vm=use_vm)

    def execute_and_apply(self, txn: Transaction, state: StateDB) -> bool:
        """Run one transaction on live state; ``False`` when it reverted.

        The per-transaction step of every discipline that executes under
        its own writes instead of a snapshot: the serial loop below and
        the pipeline's lock waves (PCC).
        """
        if txn.contract is None or self.registry is None:
            for address, value in txn.rwset.writes.items():
                state.set(address, int(value) if value is not None else 0)
            # Declared deltas fold against the live state — executed in
            # order, a commutative increment is just the
            # read-modify-write it abbreviates.
            for address, delta in txn.rwset.deltas.items():
                state.set(address, state.get(address) + delta)
            return True
        result = self.executor.execute_one(txn, state.get)
        if result.ok:
            for address, value in result.rwset.writes.items():
                state.set(address, int(value))
        return result.ok

    def run(self, transactions: Sequence[Transaction], state: StateDB) -> CommitReport:
        """Execute and commit serially; returns the new root."""
        reverted = tuple(
            txn.txid
            for txn in transactions
            if not self.execute_and_apply(txn, state)
        )
        committed = len(transactions) - len(reverted)
        return CommitReport(
            state_root=state.commit(),
            committed_count=committed,
            group_count=committed,
            reverted=reverted,
        )
