"""Concurrent speculative execution (the paper's execution phase).

Each node "picks transactions that first appear in all verified blocks
and simulates their executions concurrently and speculatively based on
the latest state snapshot" (Section III-B).  The executor runs every
transaction against the same immutable snapshot — execution order is
irrelevant — and records each transaction's read/write sets through the
logger.

The batch runs as one loop on the calling thread.  The paper executes
concurrently because one EVM call costs about 0.31 ms; here a SmallBank
call costs 9-12 µs, less than handing it to another process and taking
the result back, so a worker-process pool lost to this loop on every
workload measured (EXPERIMENTS.md, "Negative results (ISSUE 20)").

Transactions are untrusted input: a call the node cannot run — an
undeployed contract, an unknown function, non-integer arguments — is a
``REVERTED`` result, never an exception out of the epoch.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.analysis.static.deltas import (
    EMPTY_CLASSIFICATION,
    DeltaClassification,
    classify_bytecode,
    resolve_sites,
)
from repro.txn.rwset import Address, RWSet
from repro.txn.simulation import SimulationBatch, SimulationResult, SimulationStatus
from repro.txn.transaction import Transaction
from repro.vm.logger import LoggedStorage
from repro.vm.machine import DEFAULT_GAS_LIMIT, ExecutionContext, SVM
from repro.vm.native import ContractRegistry

ReadFn = Callable[[Address], int]


def caller_id(sender: str) -> int:
    """Numeric caller id from a ``user:NNN`` style sender string."""
    _, _, suffix = sender.rpartition(":")
    try:
        return int(suffix)
    except ValueError:
        return 0


def _malformed(txn: Transaction, reason: str) -> SimulationResult:
    """The reverted result of a call that cannot be run at all."""
    return SimulationResult(
        transaction=txn,
        rwset=RWSet(),
        status=SimulationStatus.REVERTED,
        error=f"malformed call: {reason}",
    )


class ConcurrentExecutor:
    """Simulates a batch of transactions against one state snapshot."""

    def __init__(
        self,
        registry: ContractRegistry | None = None,
        use_vm: bool = False,
        gas_limit: int = DEFAULT_GAS_LIMIT,
        delta_cc: bool = False,
    ) -> None:
        self.registry = registry
        self.use_vm = use_vm
        self.gas_limit = gas_limit
        self.delta_cc = delta_cc
        self._delta_classes: dict[tuple[str, str], DeltaClassification] = {}
        self._svm = SVM()

    def execute_batch(
        self,
        transactions: Sequence[Transaction],
        read_fn: ReadFn,
        snapshot_root: bytes = b"",
    ) -> SimulationBatch:
        """Speculatively execute every transaction; never mutates state."""
        ordered = sorted(transactions, key=lambda t: t.txid)
        results = [self.execute_one(txn, read_fn) for txn in ordered]
        return SimulationBatch(results=tuple(results), snapshot_root=snapshot_root)

    def execute_one(self, txn: Transaction, read_fn: ReadFn) -> SimulationResult:
        """Speculatively execute a single transaction."""
        if txn.contract is None or self.registry is None:
            return self._passthrough(txn, read_fn)
        # Transactions are untrusted: a call the node cannot run — here
        # non-integer arguments, below an undeployed contract or an
        # unknown function — reverts, on both paths, instead of raising
        # out of the epoch (a wrong argument *count* reverts inside the
        # contract).
        try:
            args = tuple(map(int, txn.args))
        except (TypeError, ValueError):
            return _malformed(txn, "arguments must be integers")
        if self.use_vm:
            return self._execute_vm(txn, args, read_fn)
        return self._execute_native(txn, args, read_fn)

    def _passthrough(self, txn: Transaction, read_fn: ReadFn) -> SimulationResult:
        """Synthetic transaction: rwset provided up front, reads resolved.

        Declared delta units pass through only under delta-CC; otherwise
        they *downgrade* to the equivalent read-modify-write (the read
        resolves against the snapshot and the write carries the summed
        value), so baseline schedulers see the plain conflict structure.
        """
        reads = {address: read_fn(address) for address in txn.read_set}
        writes: dict[Address, object] = dict(txn.rwset.writes)
        deltas: dict[Address, int] = {}
        if self.delta_cc:
            deltas = dict(txn.rwset.deltas)
        else:
            for address, delta in txn.rwset.deltas.items():
                value = read_fn(address)
                reads[address] = value
                writes[address] = value + delta
        rwset = RWSet(reads=reads, writes=writes, deltas=deltas)
        return SimulationResult(transaction=txn, rwset=rwset)

    def _delta_classification(self, contract: str, function: str) -> DeltaClassification:
        """Cached static delta classification of one deployed function."""
        key = (contract, function)
        cached = self._delta_classes.get(key)
        if cached is not None:
            return cached
        code = self.registry.bytecode(contract, function) if self.registry else None
        classification = (
            classify_bytecode(code) if code is not None else EMPTY_CLASSIFICATION
        )
        self._delta_classes[key] = classification
        return classification

    def _delta_sites(
        self, txn: Transaction, args: tuple[int, ...]
    ) -> tuple[tuple[Address, int], ...]:
        """Resolve a call's statically classified delta sites, if any."""
        if not self.delta_cc or txn.contract is None or self.registry is None:
            return ()
        classification = self._delta_classification(txn.contract, txn.function)
        if not classification.sites:
            return ()
        renderer = self.registry.key_renderer(txn.contract)
        if renderer is None:
            return ()
        return resolve_sites(classification, args, caller_id(txn.sender), renderer)

    def _execute_native(
        self, txn: Transaction, args: tuple[int, ...], read_fn: ReadFn
    ) -> SimulationResult:
        contract = self.registry.native(txn.contract)
        if contract is None:
            return _malformed(txn, f"contract {txn.contract!r} is not deployed")
        if txn.function not in contract.functions:
            return _malformed(
                txn, f"contract {txn.contract!r} has no function {txn.function!r}"
            )
        storage = LoggedStorage(read_fn)
        receipt = contract.call(
            txn.function, storage, args, caller=caller_id(txn.sender)
        )
        if receipt.success:
            sites = self._delta_sites(txn, args)
            if sites:
                storage.promote_deltas(sites)
                receipt.rwset = storage.rwset()
        return self._result_from_receipt(txn, receipt)

    def _execute_vm(
        self, txn: Transaction, args: tuple[int, ...], read_fn: ReadFn
    ) -> SimulationResult:
        code = self.registry.bytecode(txn.contract, txn.function)
        renderer = self.registry.key_renderer(txn.contract)
        if code is None or renderer is None:
            return _malformed(
                txn, f"no bytecode for {txn.contract!r}.{txn.function!r}"
            )
        storage = LoggedStorage(read_fn)
        context = ExecutionContext(
            storage=storage,
            args=args,
            caller=caller_id(txn.sender),
            gas_limit=self.gas_limit,
            key_renderer=renderer,
            delta_sites=self._delta_sites(txn, args),
        )
        receipt = self._svm.execute(code, context)
        return self._result_from_receipt(txn, receipt)

    @staticmethod
    def _result_from_receipt(txn: Transaction, receipt) -> SimulationResult:
        status = (
            SimulationStatus.SUCCESS if receipt.success else SimulationStatus.REVERTED
        )
        return SimulationResult(
            transaction=txn,
            rwset=receipt.rwset,
            status=status,
            gas_used=receipt.gas_used,
            return_value=receipt.return_value,
            error=receipt.error,
        )
