"""Reference implementations the shipped code is compared with.

* The string-keyed CC stages — ``build_acg`` (the ACG of Section IV-B),
  ``divide_ranks`` / ``rank_addresses`` (Algorithm 1),
  ``sort_transactions`` (Algorithm 2) and ``validate_sort`` — chained by
  ``schedule_reference``.  ``repro.core`` ships one implementation of
  each step, the dense-id one ``NezhaScheduler`` runs; these
  paper-shaped twins are the oracle every dense output is compared with.
* ``ReferenceSVM`` — the per-instruction SVM interpreter.  ``repro.vm``
  only runs compiled segments; this loop is the oracle for receipts.

Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import heapq
import struct
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, Iterable, Mapping, Sequence

from repro.core import (
    ACG,
    INITIAL_SEQUENCE,
    AddressRWList,
    NezhaConfig,
    RankPolicy,
    schedule_from_sequences,
)
from repro.core.validate import _abort_reason
from repro.errors import (
    ExecutionError,
    InvalidJump,
    InvalidOpcode,
    OutOfGas,
    SchedulingError,
    TruncatedBytecode,
    VMRevert,
)
from repro.obs.taxonomy import (
    EDGE_RD,
    EDGE_RW,
    EDGE_WD,
    EDGE_WW,
    UNKNOWN_PEER,
    UNSERIALIZABLE_WRITE,
)
from repro.txn import Transaction
from repro.txn.rwset import Address
from repro.vm import ExecutionContext, Op, Receipt, WORD_MASK, decode, op_info
from repro.vm.compiler import MAX_STACK_DEPTH, MAX_STEPS
from repro.vm.decoder import BytecodeLayout, truncation_message

_PUSH_IMM = struct.Struct("<Q")


def schedule_reference(
    transactions: Sequence[Transaction], config: NezhaConfig | None = None
) -> SimpleNamespace:
    """Schedule a batch through the reference stages.

    Returns the fields of a ``NezhaResult`` that the equivalence sweeps
    compare, assembled exactly as the scheduler assembles its own.
    """
    config = config or NezhaConfig()
    txn_by_id = {t.txid: t for t in transactions}
    acg = build_acg(transactions)
    rank_order = divide_ranks(acg, policy=config.rank_policy)
    state = sort_transactions(
        acg,
        rank_order,
        txn_by_id,
        enable_reorder=config.enable_reorder,
        initial_seq=config.initial_seq,
    )
    if config.enable_validation:
        validate_sort(
            acg, state, transactions=txn_by_id, enable_reorder=config.enable_reorder
        )
    delta_commuted = 0
    for rw in acg.rw_lists.values():
        committed = sum(1 for t in rw.deltas if state.is_live(t))
        if committed >= 2:
            delta_commuted += committed
    return SimpleNamespace(
        schedule=schedule_from_sequences(
            sequences=state.sequences,
            aborted=state.aborted,
            reordered=state.reordered,
        ),
        acg=acg,
        rank_order=rank_order,
        abort_reasons=dict(sorted(state.reasons.items())),
        revived=len(state.revived),
        delta_commuted=delta_commuted,
        abort_edges={txid: [edge] for txid, edge in sorted(state.edges.items())},
        revived_txids=tuple(sorted(state.revived)),
    )


# ---------------------------------------------------------------------------
# ACG construction (Definition 4)
# ---------------------------------------------------------------------------


def build_acg(transactions: Sequence[Transaction] | Iterable[Transaction]) -> ACG:
    """Build the ACG for a batch of transactions.

    Transactions are processed in ascending id order so that unit lists end
    up in the paper's deterministic order.  A transaction reading and
    writing the *same* address contributes units to that address but no
    self-loop edge (the paper's ``T_5`` case).

    Complexity: ``O(sum over txns of |RS| * |WS|)`` for edges plus
    ``O(unit count)`` for the lists — linear in practice because contract
    transactions touch a handful of addresses each.
    """
    acg = ACG()
    rw_lists = acg.rw_lists
    ordered = sorted(transactions, key=lambda t: t.txid)
    seen_ids: set[int] = set()
    for txn in ordered:
        if txn.txid in seen_ids:
            raise SchedulingError(f"duplicate txid {txn.txid} in batch")
        seen_ids.add(txn.txid)
        for address in txn.read_set:
            rw = rw_lists.get(address)
            if rw is None:
                rw = rw_lists[address] = AddressRWList(address)
            rw.reads.append(txn.txid)
        for address in txn.write_set:
            rw = rw_lists.get(address)
            if rw is None:
                rw = rw_lists[address] = AddressRWList(address)
            rw.writes.append(txn.txid)
        for address in txn.delta_set:
            rw = rw_lists.get(address)
            if rw is None:
                rw = rw_lists[address] = AddressRWList(address)
            rw.deltas.append(txn.txid)
        # Delta units mutate their address, so they join the write side of
        # the address-dependency edges (write-addr -> read-addr).
        for write_addr in txn.write_set | txn.delta_set:
            for read_addr in txn.read_set:
                if write_addr == read_addr:
                    continue
                _add_edge(acg, write_addr, read_addr)
    # Finalize: the paper's ordering rules require id order in every list.
    for rw in rw_lists.values():
        rw.reads.sort()
        rw.writes.sort()
        rw.deltas.sort()
    acg.txn_count = len(ordered)
    return acg


def _add_edge(acg: ACG, src: Address, dst: Address) -> None:
    """Record the address dependency ``src --> dst``."""
    key = (src, dst)
    count = acg.edge_multiplicity.get(key, 0)
    acg.edge_multiplicity[key] = count + 1
    if count == 0:
        acg.out_edges.setdefault(src, set()).add(dst)
        acg.in_edges.setdefault(dst, set()).add(src)


# ---------------------------------------------------------------------------
# Sorting-rank division (Algorithm 1)
# ---------------------------------------------------------------------------


def divide_ranks(acg: ACG, policy: RankPolicy = RankPolicy.MAX_OUT_DEGREE) -> list[Address]:
    """Return all accessed addresses ordered by sorting rank (rank 1 first)."""
    unit_counts = None
    if policy is RankPolicy.MAX_UNIT_COUNT:
        unit_counts = {address: len(rw) for address, rw in acg.rw_lists.items()}
    return rank_addresses(
        vertices=acg.addresses,
        out_edges=acg.out_edges,
        in_edges=acg.in_edges,
        policy=policy,
        unit_counts=unit_counts,
    )


def rank_addresses(
    vertices: Sequence[Address],
    out_edges: Mapping[Address, set[Address]],
    in_edges: Mapping[Address, set[Address]],
    policy: RankPolicy = RankPolicy.MAX_OUT_DEGREE,
    unit_counts: Mapping[Address, int] | None = None,
) -> list[Address]:
    """Rank an explicit address-dependency graph (Algorithm 1).

    ``vertices`` should contain every address; endpoints appearing only in
    the edge mappings are included automatically.
    """
    all_vertices = set(vertices)
    for src, targets in out_edges.items():
        all_vertices.add(src)
        all_vertices.update(targets)
    for dst, sources in in_edges.items():
        all_vertices.add(dst)
        all_vertices.update(sources)
    ordered_vertices = sorted(all_vertices)

    in_degree: dict[Address, int] = {}
    live_out: dict[Address, set[Address]] = {}
    live_in: dict[Address, set[Address]] = {}
    for vertex in ordered_vertices:
        live_out[vertex] = set(out_edges.get(vertex, ()))
        live_in[vertex] = set(in_edges.get(vertex, ()))
        in_degree[vertex] = len(live_in[vertex])

    def score(vertex: Address) -> int:
        if policy is RankPolicy.MIN_ADDRESS:
            return 0  # every candidate ties; smallest address wins
        if policy is RankPolicy.MAX_UNIT_COUNT:
            return (unit_counts or {}).get(vertex, 0)
        return len(live_out[vertex])

    # Lazy heaps: stale entries (changed degree/score, or removed vertex)
    # are skipped at pop time.  Every degree change pushes a fresh entry,
    # bounding total pushes by O(V + E).
    zero_heap: list[Address] = [v for v in ordered_vertices if in_degree[v] == 0]
    heapq.heapify(zero_heap)
    cycle_heap: list[tuple[int, int, Address]] = [
        (in_degree[v], -score(v), v) for v in ordered_vertices
    ]
    heapq.heapify(cycle_heap)
    removed: set[Address] = set()
    sequence: list[Address] = []

    def reindex(vertex: Address) -> None:
        heapq.heappush(cycle_heap, (in_degree[vertex], -score(vertex), vertex))

    def remove(vertex: Address) -> None:
        removed.add(vertex)
        sequence.append(vertex)
        for succ in live_out.pop(vertex, set()):
            if succ in removed:
                continue
            live_in[succ].discard(vertex)
            in_degree[succ] -= 1
            if in_degree[succ] == 0:
                heapq.heappush(zero_heap, succ)
            reindex(succ)
        for pred in live_in.pop(vertex, set()):
            if pred in removed:
                continue
            live_out[pred].discard(vertex)
            if policy is RankPolicy.MAX_OUT_DEGREE:
                reindex(pred)

    total = len(ordered_vertices)
    while len(sequence) < total:
        selected = _pop_zero(zero_heap, removed, in_degree)
        if selected is None:
            selected = _pop_cycle_breaker(cycle_heap, removed, in_degree, score)
        remove(selected)
    return sequence


def _pop_zero(
    zero_heap: list[Address], removed: set[Address], in_degree: Mapping[Address, int]
) -> Address | None:
    """Pop the smallest live zero in-degree vertex, or ``None``."""
    while zero_heap:
        vertex = heapq.heappop(zero_heap)
        if vertex in removed or in_degree[vertex] != 0:
            continue
        return vertex
    return None


def _pop_cycle_breaker(
    cycle_heap: list[tuple[int, int, Address]],
    removed: set[Address],
    in_degree: Mapping[Address, int],
    score: Callable[[Address], int],
) -> Address:
    """Pop the live entry with minimum (in-degree, -score, address).

    Entries whose recorded degree or score no longer matches the vertex's
    current values are stale copies superseded by a later push.
    """
    while cycle_heap:
        recorded_in, negative_score, vertex = heapq.heappop(cycle_heap)
        if vertex in removed:
            continue
        if recorded_in != in_degree[vertex] or -negative_score != score(vertex):
            continue  # stale entry; a fresh one exists
        return vertex
    raise AssertionError("graph unexpectedly empty")


# ---------------------------------------------------------------------------
# Per-address transaction sorting (Algorithm 2)
# ---------------------------------------------------------------------------

Edge = tuple[int, str, str]
"""Attributed conflict edge ``(peer txid, address, kind)`` — see
:data:`repro.obs.taxonomy.EDGE_KINDS`."""


@dataclass
class SortState:
    """Mutable state threaded through the per-address sorting passes.

    ``reasons`` attributes every abort to a taxonomy label (see
    :mod:`repro.obs.taxonomy`); ``edges`` attributes it to the conflict
    that triggered it — the peer transaction, the contended address and
    the violated invariant; ``revived`` records transactions the
    validator's second-chance pass brought back (their reason and edge
    entries are removed, so both maps always cover exactly ``aborted``).
    """

    sequences: dict[int, int] = field(default_factory=dict)
    aborted: set[int] = field(default_factory=set)
    reordered: set[int] = field(default_factory=set)
    reasons: dict[int, str] = field(default_factory=dict)
    edges: dict[int, Edge] = field(default_factory=dict)
    revived: set[int] = field(default_factory=set)

    def sequence_of(self, txid: int) -> int | None:
        """Assigned sequence number of ``txid``, or ``None``."""
        return self.sequences.get(txid)

    def is_live(self, txid: int) -> bool:
        """True while the transaction has not been aborted."""
        return txid not in self.aborted

    def abort(
        self,
        txid: int,
        reason: str = UNSERIALIZABLE_WRITE,
        edge: Edge | None = None,
    ) -> None:
        """Abort the transaction; its units are ignored from now on."""
        self.aborted.add(txid)
        self.sequences.pop(txid, None)
        self.reasons[txid] = reason
        if edge is not None:
            self.edges[txid] = edge


def sort_transactions(
    acg: ACG,
    rank_order: Sequence[Address],
    transactions: Mapping[int, Transaction],
    enable_reorder: bool = True,
    initial_seq: int = INITIAL_SEQUENCE,
) -> SortState:
    """Run Algorithm 2 over every address in rank order.

    Parameters
    ----------
    acg:
        The address-based conflict graph holding the per-address unit lists.
    rank_order:
        Output of :func:`divide_ranks`.
    transactions:
        Mapping txid -> transaction, used by the reordering enhancement to
        inspect a transaction's other write units.
    enable_reorder:
        Apply the Section IV-D enhancement instead of aborting when a
        transaction with multiple writes turns out unserializable.
    """
    state = SortState()
    for address in rank_order:
        _sort_address(acg, address, state, transactions, enable_reorder, initial_seq)
    # Transactions touching no address at all (no-ops) conflict with
    # nothing; they commit in the first group.
    for txid in transactions:
        if state.is_live(txid) and state.sequence_of(txid) is None:
            state.sequences[txid] = initial_seq
    return state


def _sort_address(
    acg: ACG,
    address: Address,
    state: SortState,
    transactions: Mapping[int, Transaction],
    enable_reorder: bool,
    initial_seq: int,
) -> None:
    """Assign sequence numbers to the live units of one address."""
    rw = acg.rw(address)
    reads = [t for t in rw.reads if state.is_live(t)]
    writes = [t for t in rw.writes if state.is_live(t)]
    deltas = [t for t in rw.deltas if state.is_live(t)]

    # --- Read units -------------------------------------------------------
    sorted_reads = [t for t in reads if state.sequence_of(t) is not None]
    if not sorted_reads:
        for txid in reads:
            state.sequences[txid] = initial_seq
        max_read = initial_seq if reads else 0
    else:
        values = [state.sequences[t] for t in sorted_reads]
        min_seq = min(values)
        max_read = max(values)
        for txid in reads:
            if state.sequence_of(txid) is None:
                state.sequences[txid] = min_seq

    # --- Previously-assigned write units ----------------------------------
    read_ids = set(reads)
    sorted_writes = [t for t in writes if state.sequence_of(t) is not None]

    # A transaction with both units on this address keeps one number placed
    # directly above the reads (paper line 17-19).  Rule 1 only constrains
    # *distinct* transactions, so the bump compares against the highest
    # read of the others and is skipped when the number already clears it
    # (a transaction sequenced higher on an earlier-ranked address).
    for txid in sorted_writes:
        if txid not in read_ids:
            continue
        other_max = max(
            (
                state.sequences[reader]
                for reader in reads
                if reader != txid and state.sequence_of(reader) is not None
            ),
            default=0,
        )
        if state.sequences[txid] <= other_max:
            state.sequences[txid] = max(max_read, other_max) + 1
        max_read = max(max_read, state.sequences[txid])

    # Unserializability check (paper lines 20-24).  The paper tests
    # ``sequence < maxRead``; rule 1 requires reads to be *strictly*
    # smaller than writes, so equality is also invalid (see DESIGN.md).
    # A plain write landing on a previously-assigned delta number is the
    # same anomaly as a write-write duplicate (W≠D).
    delta_seqs_assigned = {
        state.sequences[t]: t
        for t in reversed(deltas)
        if state.sequence_of(t) is not None
    }
    seen_write_seqs: dict[int, int] = {}
    for txid in sorted_writes:
        sequence = state.sequences[txid]
        duplicate = sequence in seen_write_seqs and seen_write_seqs[sequence] != txid
        too_small = sequence <= max_read and txid not in read_ids
        if too_small or duplicate or sequence in delta_seqs_assigned:
            # Below a read unit, two writes assigned on different earlier
            # addresses collided with equal numbers, or a write collided
            # with a delta number.
            if too_small:
                edge = (_top_live_reader(reads, state, txid), address, EDGE_RW)
            elif duplicate:
                edge = (seen_write_seqs[sequence], address, EDGE_WW)
            else:
                edge = (delta_seqs_assigned[sequence], address, EDGE_WD)
            _resolve_unserializable(
                acg, address, txid, state, transactions, enable_reorder, edge
            )
        if state.is_live(txid):
            seen_write_seqs[state.sequences[txid]] = txid

    # --- Remaining write units --------------------------------------------
    write_seq = initial_seq if max_read == 0 else max_read + 1
    assigned_here = {
        state.sequences[t]
        for t in (*reads, *writes, *deltas)
        if state.is_live(t) and state.sequence_of(t) is not None
    }
    for txid in writes:
        if not state.is_live(txid) or state.sequence_of(txid) is not None:
            continue
        while write_seq in assigned_here:
            write_seq += 1
        state.sequences[txid] = write_seq
        assigned_here.add(write_seq)

    # --- Delta units ------------------------------------------------------
    if deltas:
        _sort_deltas(
            acg, address, deltas, max_read, state, transactions,
            enable_reorder, initial_seq,
        )


def _sort_deltas(
    acg: ACG,
    address: Address,
    deltas: list[int],
    max_read: int,
    state: SortState,
    transactions: Mapping[int, Transaction],
    enable_reorder: bool,
    initial_seq: int,
) -> None:
    """Assign sequence numbers to the live delta units of one address.

    All deltas on the address converge on one shared number — the minimum
    valid number already held by a previously-assigned delta, or a fresh
    number above ``max_read`` that avoids every plain-write number (the
    shared-read rule transplanted to the write side).
    """
    rw = acg.rw(address)
    writer_seqs = {
        state.sequences[t]: t
        for t in reversed(rw.writes)
        if state.is_live(t) and state.sequence_of(t) is not None
    }
    # Previously-assigned deltas: R<D and W≠D violations pay here.
    for txid in deltas:
        sequence = state.sequence_of(txid)
        if sequence is None:
            continue
        if sequence <= max_read or sequence in writer_seqs:
            if sequence <= max_read:
                edge = (_top_live_reader(rw.reads, state, txid), address, EDGE_RD)
            else:
                edge = (writer_seqs[sequence], address, EDGE_WD)
            _resolve_unserializable(
                acg, address, txid, state, transactions, enable_reorder, edge
            )
    # Surviving assigned deltas all hold valid numbers now (a rescue bumps
    # past every assigned number on every touched address).
    valid = [
        state.sequences[t]
        for t in deltas
        if state.is_live(t) and state.sequence_of(t) is not None
    ]
    if valid:
        fill = min(valid)
    else:
        fill = initial_seq if max_read == 0 else max_read + 1
        while fill in writer_seqs:
            fill += 1
    for txid in deltas:
        if state.is_live(txid) and state.sequence_of(txid) is None:
            state.sequences[txid] = fill


def _top_live_reader(
    reads: Sequence[int], state: SortState, exclude: int
) -> int:
    """Live reader holding the highest assigned number (first in list order).

    The attribution peer for an R<W / R<D violation: the reader whose
    number the violating write failed to clear.  ``UNKNOWN_PEER`` when no
    live assigned reader remains (the blocking reader itself aborted later
    in the same pass).
    """
    peer = UNKNOWN_PEER
    best = 0
    for reader in reads:
        if reader == exclude or not state.is_live(reader):
            continue
        sequence = state.sequence_of(reader)
        if sequence is not None and sequence > best:
            best = sequence
            peer = reader
    return peer


def _resolve_unserializable(
    acg: ACG,
    address: Address,
    txid: int,
    state: SortState,
    transactions: Mapping[int, Transaction],
    enable_reorder: bool,
    edge: Edge | None = None,
) -> None:
    """Abort an unserializable transaction, or reorder it when possible.

    Reordering (Section IV-D) targets anomalies caused by *write-write*
    dependencies: a transaction with more than one write unit is bumped to
    a sequence number greater than the maximum assigned on any address it
    touches, which is valid because the order between write units may be
    switched.  The bump is gated on the transaction's reads being
    writer-free: pushing a transaction past every assigned number also
    pushes its *read* units past any other writer of those addresses,
    which always violates the R<W invariant — the validator would abort
    the bumped transaction anyway, after its inflated number has skewed
    the sorting of every later-ranked address it touches (collateral
    aborts).  Restricting the rescue to transactions whose read addresses
    have no other live writer keeps it a pure write-write reorder, which
    is exactly the case Section IV-D argues is safe.
    """
    txn = transactions.get(txid)
    rescuable = (
        enable_reorder
        and txn is not None
        and len(txn.write_set) > 1
        and reads_are_writer_free(acg, txn, state)
    )
    if rescuable:
        new_seq = max_sequence_on_addresses(acg, txn, state) + 1
        state.sequences[txid] = new_seq
        state.reordered.add(txid)
    else:
        state.abort(txid, edge=edge)


def reads_are_writer_free(acg: ACG, txn: Transaction, state: SortState) -> bool:
    """True when no other live transaction writes any address ``txn`` reads.

    Delta units mutate their address, so they count as writers here.
    """
    for address in txn.read_set:
        rw = acg.rw_lists.get(address)
        if rw is None:
            continue
        for writer in (*rw.writes, *rw.deltas):
            if writer != txn.txid and state.is_live(writer):
                return False
    return True


def max_sequence_on_addresses(acg: ACG, txn: Transaction, state: SortState) -> int:
    """Maximum sequence currently assigned on any address ``txn`` touches."""
    best = 0
    for address in txn.rwset.addresses:
        rw = acg.rw_lists.get(address)
        if rw is None:
            continue
        for other in (*rw.reads, *rw.writes, *rw.deltas):
            if not state.is_live(other):
                continue
            sequence = state.sequence_of(other)
            if sequence is not None and sequence > best:
                best = sequence
    return best


# ---------------------------------------------------------------------------
# Final safety validation
# ---------------------------------------------------------------------------


def validate_sort(
    acg: ACG,
    state: SortState,
    transactions: Mapping[int, Transaction] | None = None,
    enable_reorder: bool = False,
) -> set[int]:
    """Abort transactions violating the serialization invariants.

    Repeats sweeps until a fixpoint (aborting or bumping only removes or
    defers constraints, and each transaction is bumped at most once, so
    the loop terminates).  With ``enable_reorder``, a stranded writer with
    more than one write unit gets one Section IV-D rescue attempt — a bump
    past every number on its addresses — before it is aborted.  Returns
    the ids aborted here.
    """
    newly_aborted: set[int] = set()
    attempted: set[int] = set(state.reordered)
    addresses = acg.addresses
    while True:
        violators = _find_violations(acg, state, addresses)
        if not violators:
            break
        for txid in sorted(violators):
            txn = transactions.get(txid) if transactions else None
            rescuable = (
                enable_reorder
                and txid not in attempted
                and txn is not None
                and len(txn.write_set) > 1
                and reads_are_writer_free(acg, txn, state)
            )
            if rescuable:
                attempted.add(txid)
                new_seq = 1 + max_sequence_on_addresses(acg, txn, state)
                state.sequences[txid] = new_seq
                state.reordered.add(txid)
            else:
                state.abort(
                    txid, _abort_reason(txid, state.reordered),
                    edge=violators[txid],
                )
                newly_aborted.add(txid)
    if enable_reorder and transactions is not None:
        newly_aborted -= _resurrect(acg, state, transactions)
    return newly_aborted


def _resurrect(
    acg: ACG, state: SortState, transactions: Mapping[int, Transaction]
) -> set[int]:
    """Second-chance commit for aborted transactions that are now safe.

    Aborting a transaction removes the constraints it imposed, which can
    leave earlier casualties retroactively innocent — most commonly a
    blind writer stranded at an equal number by a reader that has since
    been re-bumped or aborted.  A transaction can be revived at a number
    above everything on its addresses iff none of its read addresses has
    a live writer (its snapshot reads then stay valid no matter how late
    it commits; its writes are write-write reorderable by definition).
    Revival preserves both invariants by construction, so no re-sweep is
    needed.  Processed in ascending id order for determinism.
    """
    revived: set[int] = set()
    for txid in sorted(state.aborted):
        txn = transactions.get(txid)
        if txn is None:
            continue
        if not reads_are_writer_free(acg, txn, state):
            continue
        state.aborted.discard(txid)
        state.reasons.pop(txid, None)
        state.edges.pop(txid, None)
        state.revived.add(txid)
        state.sequences[txid] = 1 + max_sequence_on_addresses(acg, txn, state)
        revived.add(txid)
    return revived


def _find_violations(
    acg: ACG, state: SortState, addresses: Sequence[str]
) -> dict[int, Edge]:
    """One sweep: every transaction to abort, with its attributed edge.

    The edge names the conflict that convicted the violator — peer txid,
    contended address, violated invariant — and the first conviction in
    sweep order wins (deterministic: addresses in graph order, units in
    list order), so attribution is identical on every replica.
    """
    violators: dict[int, Edge] = {}
    for address in addresses:
        rw = acg.rw_lists[address]
        # Split readers into normally-sorted and reordered; track the two
        # highest normal reads so a writer that also reads the address can
        # be compared against the highest *other* normal read.
        top_seq = 0
        top_reader = -1
        second_seq = 0
        second_reader = -1
        reordered_readers: list[tuple[int, int]] = []
        for txid in rw.reads:
            if not state.is_live(txid):
                continue
            sequence = state.sequence_of(txid)
            if sequence is None:
                continue
            if txid in state.reordered:
                reordered_readers.append((txid, sequence))
                continue
            if sequence > top_seq:
                second_seq = top_seq
                second_reader = top_reader
                top_seq = sequence
                top_reader = txid
            elif sequence > second_seq:
                second_seq = sequence
                second_reader = txid
        seen: dict[int, int] = {}
        for txid in rw.writes:
            if not state.is_live(txid):
                continue
            sequence = state.sequence_of(txid)
            if sequence is None:
                # Unassigned live writer: sorting never reached it, which
                # cannot happen for a completed run; treat as violation.
                violators.setdefault(txid, (UNKNOWN_PEER, address, EDGE_WW))
                continue
            limit = second_seq if txid == top_reader else top_seq
            if sequence <= limit:
                peer = second_reader if txid == top_reader else top_reader
                violators.setdefault(txid, (peer, address, EDGE_RW))
            else:
                for reader, read_seq in reordered_readers:
                    if reader != txid and sequence <= read_seq:
                        # A bumped reader stranded an otherwise-valid
                        # writer: the bumped transaction pays.
                        violators.setdefault(reader, (txid, address, EDGE_RW))
            prior = seen.get(sequence)
            if prior is not None and prior != txid:
                victim = _duplicate_victim(prior, txid, state)
                peer = txid if victim == prior else prior
                violators.setdefault(victim, (peer, address, EDGE_WW))
            else:
                seen[sequence] = txid
        # Delta units: pseudo-writers.  R<D against every normal reader
        # (a delta transaction never reads its own delta address, so the
        # top-reader carve-out is vacuous), W!=D against the plain
        # writers recorded in ``seen``; two deltas may share a number.
        for txid in rw.deltas:
            if not state.is_live(txid):
                continue
            sequence = state.sequence_of(txid)
            if sequence is None:
                violators.setdefault(txid, (UNKNOWN_PEER, address, EDGE_WD))
                continue
            if sequence <= top_seq:
                violators.setdefault(txid, (top_reader, address, EDGE_RD))
            else:
                for reader, read_seq in reordered_readers:
                    if reader != txid and sequence <= read_seq:
                        violators.setdefault(reader, (txid, address, EDGE_RD))
            prior = seen.get(sequence)
            if prior is not None and prior != txid:
                victim = _duplicate_victim(prior, txid, state)
                peer = txid if victim == prior else prior
                violators.setdefault(victim, (peer, address, EDGE_WD))
    return violators


def _duplicate_victim(first: int, second: int, state: SortState) -> int:
    """Which of two equal-sequence writers aborts: reordered, else larger id."""
    if first in state.reordered and second not in state.reordered:
        return first
    if second in state.reordered and first not in state.reordered:
        return second
    return max(first, second)


class ReferenceSVM:
    """The if/elif interpreter ``repro.vm`` shipped before the segment compiler.

    Moved here verbatim (``SVM`` → ``ReferenceSVM``); it defines what a
    ``Receipt`` must be for every byte string, and the differential fuzz
    holds the compiled ``SVM`` to it.
    """

    def execute(self, code: bytes, context: ExecutionContext) -> Receipt:
        """Run ``code`` to completion; revert errors produce a failed receipt.

        Structural errors (bad opcode, stack underflow, out of gas, jump
        out of range) also fail the receipt rather than raising, because a
        blockchain node must never crash on untrusted bytecode.
        """
        try:
            value, gas_used, logs = self._run(code, context)
        except VMRevert as exc:
            context.storage.discard()
            return Receipt(
                success=False,
                return_value=None,
                gas_used=exc.args[0] if exc.args else 0,
                rwset=context.storage.rwset(),
                error="reverted",
            )
        except (InvalidOpcode, OutOfGas, ExecutionError) as exc:
            context.storage.discard()
            return Receipt(
                success=False,
                return_value=None,
                gas_used=context.gas_limit,
                rwset=context.storage.rwset(),
                error=str(exc),
            )
        if context.delta_sites:
            context.storage.promote_deltas(context.delta_sites)
        return Receipt(
            success=True,
            return_value=value,
            gas_used=gas_used,
            rwset=context.storage.rwset(),
            logs=tuple(logs),
        )

    def _run(
        self, code: bytes, context: ExecutionContext
    ) -> tuple[int | None, int, list[tuple[int, int]]]:
        stack: list[int] = []
        logs: list[tuple[int, int]] = []
        pc = 0
        gas_used = 0
        steps = 0
        size = len(code)
        # One cached structural scan per bytecode unit: yields the set of
        # valid instruction boundaries (the only legal jump targets) and
        # the location of any truncated trailing immediate.
        layout = decode(code)
        truncated_pc = layout.truncated_pc
        while pc < size:
            steps += 1
            if steps > MAX_STEPS:
                raise ExecutionError("step limit exceeded (infinite loop?)")
            opcode = code[pc]
            info = op_info(opcode)
            if info is None:
                raise InvalidOpcode(f"unknown opcode 0x{opcode:02x} at pc {pc}")
            if pc == truncated_pc:
                instruction = layout.instruction_at(pc)
                assert instruction is not None
                raise TruncatedBytecode(truncation_message(instruction, size))
            gas_used += info.gas
            if gas_used > context.gas_limit:
                raise OutOfGas(f"gas limit {context.gas_limit} exceeded at pc {pc}")
            if len(stack) < info.stack_in:
                raise ExecutionError(f"stack underflow at pc {pc} ({info.op.name})")
            op = info.op
            next_pc = pc + 1 + info.immediate_size

            if op is Op.STOP:
                return None, gas_used, logs
            if op is Op.PUSH:
                (value,) = _PUSH_IMM.unpack_from(code, pc + 1)
                stack.append(value)
            elif op is Op.POP:
                stack.pop()
            elif op is Op.DUP:
                depth = code[pc + 1]
                if depth < 1 or depth > len(stack):
                    raise ExecutionError(f"DUP {depth} beyond stack at pc {pc}")
                stack.append(stack[-depth])
            elif op is Op.SWAP:
                depth = code[pc + 1]
                if depth < 1 or depth + 1 > len(stack):
                    raise ExecutionError(f"SWAP {depth} beyond stack at pc {pc}")
                stack[-1], stack[-depth - 1] = stack[-depth - 1], stack[-1]
            elif op is Op.ARG:
                index = code[pc + 1]
                if index >= len(context.args):
                    raise ExecutionError(f"ARG {index} out of range at pc {pc}")
                stack.append(context.args[index] & WORD_MASK)
            elif op is Op.CALLER:
                stack.append(context.caller & WORD_MASK)
            elif op is Op.ADD:
                b, a = stack.pop(), stack.pop()
                stack.append((a + b) & WORD_MASK)
            elif op is Op.SUB:
                b, a = stack.pop(), stack.pop()
                stack.append((a - b) & WORD_MASK)
            elif op is Op.MUL:
                b, a = stack.pop(), stack.pop()
                stack.append((a * b) & WORD_MASK)
            elif op is Op.DIV:
                b, a = stack.pop(), stack.pop()
                stack.append(0 if b == 0 else a // b)
            elif op is Op.MOD:
                b, a = stack.pop(), stack.pop()
                stack.append(0 if b == 0 else a % b)
            elif op is Op.LT:
                b, a = stack.pop(), stack.pop()
                stack.append(1 if a < b else 0)
            elif op is Op.GT:
                b, a = stack.pop(), stack.pop()
                stack.append(1 if a > b else 0)
            elif op is Op.EQ:
                b, a = stack.pop(), stack.pop()
                stack.append(1 if a == b else 0)
            elif op is Op.ISZERO:
                stack.append(1 if stack.pop() == 0 else 0)
            elif op is Op.AND:
                b, a = stack.pop(), stack.pop()
                stack.append(a & b)
            elif op is Op.OR:
                b, a = stack.pop(), stack.pop()
                stack.append(a | b)
            elif op is Op.NOT:
                stack.append(stack.pop() ^ WORD_MASK)
            elif op is Op.JUMP:
                next_pc = self._jump_target(stack.pop(), layout, pc)
            elif op is Op.JUMPI:
                condition, target = stack.pop(), stack.pop()
                if condition:
                    next_pc = self._jump_target(target, layout, pc)
            elif op is Op.SLOAD:
                key = stack.pop()
                address = context.key_renderer(key)
                stack.append(context.storage.load(address) & WORD_MASK)
            elif op is Op.SSTORE:
                value, key = stack.pop(), stack.pop()
                address = context.key_renderer(key)
                context.storage.store(address, value)
            elif op is Op.LOG:
                value, topic = stack.pop(), stack.pop()
                logs.append((topic, value))
            elif op is Op.RETURN:
                return stack.pop(), gas_used, logs
            elif op is Op.REVERT:
                raise VMRevert(gas_used)
            else:  # pragma: no cover - table and dispatch are in sync
                raise InvalidOpcode(f"unhandled opcode {op.name}")

            if len(stack) > MAX_STACK_DEPTH:
                raise ExecutionError(f"stack overflow at pc {pc}")
            pc = next_pc
        return None, gas_used, logs

    @staticmethod
    def _jump_target(target: int, layout: BytecodeLayout, pc: int) -> int:
        size = len(layout.code)
        if target >= size:
            raise InvalidJump(f"jump to {target} beyond code size {size} (pc {pc})")
        if target not in layout.boundaries:
            raise InvalidJump(
                f"jump to {target} lands inside an instruction immediate (pc {pc})"
            )
        return target
