"""Final safety validation of a hierarchical-sorting result.

Algorithm 2 as printed in the paper assigns sequence numbers in one pass
over the addresses.  Three rare corner cases can slip through (see
DESIGN.md, "Implementation hardening"):

1. two writes assigned on *different* earlier-ranked addresses can reach a
   shared later address carrying the same sequence number;
2. re-assigning a transaction (line 17-19) can retroactively invalidate an
   address that was already sorted;
3. the reordering enhancement is optimistic — bumping a transaction that
   also *reads* contended addresses can strand another writer below the
   bumped read.

This module re-checks the two serialization invariants in linear time and
deterministically aborts violators, guaranteeing that every schedule the
library emits is conflict-serializable:

* **R<W**: for distinct live transactions ``u``/``v``, if ``u`` reads an
  address ``v`` writes, then ``seq(u) < seq(v)``;
* **W!=W**: two live writers of the same address never share a number.

Commutative delta units are pseudo-writers: **R<D** (every reader stays
below every delta) and **W!=D** (a delta never shares a number with a
plain write) are enforced the same way, while two deltas on one address
may legally share a number (**D=D** — their effects fold commutatively).

Abort policy: the *writer* is aborted (matching the paper, which aborts
the transaction whose write unit carries the abnormal number) — unless
the blocking reader is a transaction the reordering enhancement bumped,
in which case the bumped transaction is aborted instead (it is the one
that moved; without reordering it would have been aborted anyway, so
reordering can never increase the total abort count).  Ties go to the
larger transaction id.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.core.acg import DenseACG
from repro.core.sorting import (
    UNASSIGNED,
    DenseEdge,
    DenseSortState,
    max_sequence_on_addresses_dense,
    reads_are_writer_free_dense,
)
from repro.obs.taxonomy import (
    DOOMED_REORDER,
    EDGE_RD,
    EDGE_RW,
    EDGE_WD,
    EDGE_WW,
    UNKNOWN_PEER,
    UNSERIALIZABLE_WRITE,
)
from repro.txn.transaction import Transaction


def _abort_reason(txid: int, reordered: set[int]) -> str:
    """Taxonomy label for a validator abort.

    A transaction the Section IV-D enhancement bumped was rescued once
    already — aborting it now means the bump itself was doomed; anything
    else is a plain unserializable write.
    """
    return DOOMED_REORDER if txid in reordered else UNSERIALIZABLE_WRITE


def validate_sort_dense(
    dense: DenseACG, state: DenseSortState, enable_reorder: bool = False
) -> set[int]:
    """Abort transactions violating the serialization invariants.

    Repeats sweeps until a fixpoint (aborting or bumping only removes or
    defers constraints, and each transaction is bumped at most once, so
    the loop terminates).  With ``enable_reorder``, a stranded writer with
    more than one write unit gets one Section IV-D rescue attempt — a bump
    past every number on its addresses — before it is aborted.  Returns
    the *dense transaction indices* aborted here.
    """
    newly_aborted: set[int] = set()
    attempted: set[int] = set(state.reordered)
    while True:
        violators = _find_violations_dense(dense, state)
        if not violators:
            break
        for txn_idx in sorted(violators):
            rescuable = (
                enable_reorder
                and txn_idx not in attempted
                and dense.write_count_of(txn_idx) > 1
                and reads_are_writer_free_dense(dense, txn_idx, state)
            )
            if rescuable:
                attempted.add(txn_idx)
                state.seq[txn_idx] = 1 + max_sequence_on_addresses_dense(
                    dense, txn_idx, state
                )
                state.reordered.add(txn_idx)
            else:
                state.abort(
                    txn_idx, _abort_reason(txn_idx, state.reordered),
                    edge=violators[txn_idx],
                )
                newly_aborted.add(txn_idx)
    if enable_reorder:
        newly_aborted -= _resurrect_dense(dense, state)
    return newly_aborted


def _resurrect_dense(dense: DenseACG, state: DenseSortState) -> set[int]:
    """Second-chance commit for aborted transactions that are now safe.

    Aborting a transaction removes the constraints it imposed, which can
    leave earlier casualties retroactively innocent — most commonly a
    blind writer stranded at an equal number by a reader that has since
    been re-bumped or aborted.  A transaction can be revived at a number
    above everything on its addresses iff none of its read addresses has
    a live writer (its snapshot reads then stay valid no matter how late
    it commits; its writes are write-write reorderable by definition).
    Revival preserves both invariants by construction, so no re-sweep is
    needed.  Processed in ascending index (= txid) order for determinism.
    """
    revived: set[int] = set()
    for txn_idx in state.aborted_indices():
        if not reads_are_writer_free_dense(dense, txn_idx, state):
            continue
        state.alive[txn_idx] = 1
        state.reasons.pop(txn_idx, None)
        state.edges.pop(txn_idx, None)
        state.revived.add(txn_idx)
        state.seq[txn_idx] = 1 + max_sequence_on_addresses_dense(
            dense, txn_idx, state
        )
        revived.add(txn_idx)
    return revived


def _find_violations_dense(
    dense: DenseACG, state: DenseSortState
) -> dict[int, DenseEdge]:
    """One sweep: every transaction to abort, with its attributed edge.

    The edge names the conflict that convicted the violator — peer,
    contended address, violated invariant — and the first conviction in
    sweep order wins (deterministic: addresses in id order, units in list
    order), so attribution is identical on every replica.
    """
    seq = state.seq
    alive = state.alive
    reordered = state.reordered
    violators: dict[int, DenseEdge] = {}
    for addr_id in range(dense.addr_count):
        # Split readers into normally-sorted and reordered; track the two
        # highest normal reads so a writer that also reads the address can
        # be compared against the highest *other* normal read.
        top_seq = 0
        top_reader = -1
        second_seq = 0
        second_reader = -1
        reordered_readers: list[tuple[int, int]] = []
        for txn_idx in dense.reads_of(addr_id):
            if not alive[txn_idx]:
                continue
            sequence = seq[txn_idx]
            if sequence == UNASSIGNED:
                continue
            if txn_idx in reordered:
                reordered_readers.append((txn_idx, sequence))
                continue
            if sequence > top_seq:
                second_seq = top_seq
                second_reader = top_reader
                top_seq = sequence
                top_reader = txn_idx
            elif sequence > second_seq:
                second_seq = sequence
                second_reader = txn_idx
        seen: dict[int, int] = {}
        for txn_idx in dense.writes_of(addr_id):
            if not alive[txn_idx]:
                continue
            sequence = seq[txn_idx]
            if sequence == UNASSIGNED:
                # Unassigned live writer: sorting never reached it, which
                # cannot happen for a completed run; treat as violation.
                violators.setdefault(txn_idx, (UNKNOWN_PEER, addr_id, EDGE_WW))
                continue
            limit = second_seq if txn_idx == top_reader else top_seq
            if sequence <= limit:
                peer = second_reader if txn_idx == top_reader else top_reader
                violators.setdefault(txn_idx, (peer, addr_id, EDGE_RW))
            else:
                for reader, read_seq in reordered_readers:
                    if reader != txn_idx and sequence <= read_seq:
                        # A bumped reader stranded an otherwise-valid
                        # writer: the bumped transaction pays.
                        violators.setdefault(reader, (txn_idx, addr_id, EDGE_RW))
            prior = seen.get(sequence)
            if prior is not None and prior != txn_idx:
                victim = _duplicate_victim_dense(prior, txn_idx, reordered)
                peer = txn_idx if victim == prior else prior
                violators.setdefault(victim, (peer, addr_id, EDGE_WW))
            else:
                seen[sequence] = txn_idx
        # Delta units: pseudo-writers.  R<D against every normal reader
        # (a delta transaction never reads its own delta address, so the
        # top-reader carve-out is vacuous), W!=D against the plain
        # writers recorded in ``seen``; two deltas may share a number.
        for txn_idx in dense.deltas_of(addr_id):
            if not alive[txn_idx]:
                continue
            sequence = seq[txn_idx]
            if sequence == UNASSIGNED:
                violators.setdefault(txn_idx, (UNKNOWN_PEER, addr_id, EDGE_WD))
                continue
            if sequence <= top_seq:
                violators.setdefault(txn_idx, (top_reader, addr_id, EDGE_RD))
            else:
                for reader, read_seq in reordered_readers:
                    if reader != txn_idx and sequence <= read_seq:
                        violators.setdefault(reader, (txn_idx, addr_id, EDGE_RD))
            prior = seen.get(sequence)
            if prior is not None and prior != txn_idx:
                victim = _duplicate_victim_dense(prior, txn_idx, reordered)
                peer = txn_idx if victim == prior else prior
                violators.setdefault(victim, (peer, addr_id, EDGE_WD))
    return violators


def _duplicate_victim_dense(first: int, second: int, reordered: set[int]) -> int:
    """Which of two equal-sequence writers aborts: reordered, else larger id."""
    if first in reordered and second not in reordered:
        return first
    if second in reordered and first not in reordered:
        return second
    return max(first, second)


def check_invariants(
    transactions: Mapping[int, Transaction] | Sequence[Transaction],
    sequences: Mapping[int, int],
    aborted: set[int] | frozenset[int] = frozenset(),
) -> list[str]:
    """Return human-readable descriptions of invariant violations.

    Used by tests and by :mod:`repro.analysis` to certify schedules from
    *any* scheme (Nezha, CG, OCC).  An empty list means the committed
    transactions form a valid serialization order.
    """
    if not isinstance(transactions, Mapping):
        transactions = {t.txid: t for t in transactions}
    problems: list[str] = []
    readers: dict[str, list[tuple[int, int]]] = {}
    writers: dict[str, list[tuple[int, int]]] = {}
    delta_writers: dict[str, list[tuple[int, int]]] = {}
    for txid, txn in transactions.items():
        if txid in aborted:
            continue
        if txid not in sequences:
            problems.append(f"committed T{txid} has no sequence number")
            continue
        sequence = sequences[txid]
        for address in txn.read_set:
            readers.setdefault(address, []).append((txid, sequence))
        for address in txn.write_set:
            writers.setdefault(address, []).append((txid, sequence))
        for address in txn.delta_set:
            delta_writers.setdefault(address, []).append((txid, sequence))
    for address, write_list in sorted(writers.items()):
        seen: dict[int, int] = {}
        for txid, sequence in write_list:
            prior = seen.get(sequence)
            if prior is not None and prior != txid:
                problems.append(
                    f"writes of T{prior} and T{txid} on {address} share sequence {sequence}"
                )
            seen[sequence] = txid
        for reader, read_seq in readers.get(address, ()):
            for writer, write_seq in write_list:
                if reader != writer and write_seq <= read_seq:
                    problems.append(
                        f"T{reader} reads {address} at seq {read_seq} but "
                        f"T{writer} writes it at seq {write_seq}"
                    )
    # Delta pseudo-writers: R<D against every reader, W!=D against every
    # plain writer; two deltas may legally share a number (D=D).
    for address, delta_list in sorted(delta_writers.items()):
        plain_seqs = {sequence: txid for txid, sequence in writers.get(address, ())}
        for txid, sequence in delta_list:
            plain = plain_seqs.get(sequence)
            if plain is not None and plain != txid:
                problems.append(
                    f"delta of T{txid} and write of T{plain} on {address} "
                    f"share sequence {sequence}"
                )
            for reader, read_seq in readers.get(address, ()):
                if reader != txid and sequence <= read_seq:
                    problems.append(
                        f"T{reader} reads {address} at seq {read_seq} but "
                        f"T{txid} applies a delta at seq {sequence}"
                    )
    return problems
