"""Per-address transaction sorting (Algorithm 2) with optional reordering.

After rank division, addresses are visited in rank order and Lamport-style
sequence numbers are assigned to the units on each address:

* all read units on an address share a sequence number (reads never
  conflict with each other);
* write units receive increasing, pairwise-distinct numbers strictly
  greater than the address's maximum read number;
* a previously-assigned write unit whose number does not exceed the
  address's maximum read number belongs to an unserializable transaction,
  which is aborted — this replaces the conventional scheme's cycle
  detection;
* a transaction that both reads and writes the address keeps a single
  number (atomicity) placed just above the maximum read number.

The *reordering* enhancement (Section IV-D) rescues an unserializable
transaction with multiple write units by re-assigning it a number greater
than the maximum already used on any address it touches, exploiting the
reorderability of write-write dependencies.

Commutative *delta* units extend the scheme with a third unit kind that
behaves like the shared-read case on the write side:

* delta units on an address may freely share one sequence number with
  each other (their effects fold to the same sum in any order — ``D=D``);
* every delta number must be strictly greater than the address's maximum
  read number (readers must observe the pre-delta value — ``R<D``);
* a delta unit never shares a number with a plain write unit on the same
  address (a plain write clobbers the folded value — ``W≠D``).

Plain writes are processed first; deltas second.  A previously-assigned
plain writer colliding with a delta number pays in the write pass, and a
previously-assigned delta colliding with a surviving plain-write number
pays in the delta pass, so the outcome is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.acg import DenseACG
from repro.obs.taxonomy import (
    EDGE_RD,
    EDGE_RW,
    EDGE_WD,
    EDGE_WW,
    UNKNOWN_PEER,
    UNSERIALIZABLE_WRITE,
)

DenseEdge = tuple[int, int, str]
"""Attributed conflict edge ``(peer dense index, dense address id, kind)``
— see :data:`repro.obs.taxonomy.EDGE_KINDS`."""

UNASSIGNED = -1
"""Sentinel for "no sequence number yet" (valid numbers are >= 0)."""

INITIAL_SEQUENCE = 1
"""First sequence number handed out (0 is the "no reads" sentinel)."""


@dataclass
class DenseSortState:
    """Mutable state threaded through the per-address sorting passes.

    ``seq[i]`` is the sequence number of the transaction at dense index
    ``i`` (``UNASSIGNED`` until sorted), ``alive[i]`` is 1 until the
    transaction aborts, and ``reordered`` holds the dense indices rescued
    by the Section IV-D enhancement.  ``reasons`` attributes every abort
    to a taxonomy label (see :mod:`repro.obs.taxonomy`); ``edges``
    attributes it to the conflict that triggered it — the peer, the
    contended address and the violated invariant; ``revived`` records
    transactions the validator's second-chance pass brought back (their
    reason and edge entries are removed, so both maps always cover
    exactly the aborted indices).
    """

    seq: list[int]
    alive: bytearray
    reordered: set[int] = field(default_factory=set)
    reasons: dict[int, str] = field(default_factory=dict)
    edges: dict[int, DenseEdge] = field(default_factory=dict)
    revived: set[int] = field(default_factory=set)

    def abort(
        self,
        txn_idx: int,
        reason: str = UNSERIALIZABLE_WRITE,
        edge: DenseEdge | None = None,
    ) -> None:
        """Abort the transaction; its units are ignored from now on."""
        self.alive[txn_idx] = 0
        self.seq[txn_idx] = UNASSIGNED
        self.reasons[txn_idx] = reason
        if edge is not None:
            self.edges[txn_idx] = edge

    def aborted_indices(self) -> list[int]:
        """Dense indices of aborted transactions, ascending."""
        return [i for i, live in enumerate(self.alive) if not live]


def sort_transactions_dense(
    dense: DenseACG,
    rank_order: Sequence[int],
    enable_reorder: bool = True,
    initial_seq: int = INITIAL_SEQUENCE,
) -> DenseSortState:
    """Run Algorithm 2 over every address in rank order (dense ids).

    Dense txn index ``i`` is the ``i``-th smallest txid, so the sequence
    numbers, aborts and reorder decisions equal, position for position,
    those of the string-keyed reference sorter (``tests/reference.py``);
    only the data layout differs.

    Two address shapes cover the bulk of realistic batches (an address
    touched by one or two transactions) and collapse to a constant-time
    assignment, proven equivalent to the full per-address pass:

    * **reads only** — every unassigned live reader gets the minimum
      assigned read number (or ``initial_seq`` when none is assigned);
      the write-unit machinery is vacuous;
    * **single owner** — all live units belong to one transaction (one
      write, plus at most a read by the same transaction): an unassigned
      owner gets ``initial_seq``; an assigned owner is left untouched
      (``max_read`` is 0 or its own number, so neither the bump, the
      unserializability test, nor the duplicate test can fire).
    """
    txn_count = dense.txn_count
    state = DenseSortState(
        seq=[UNASSIGNED] * txn_count, alive=bytearray(b"\x01") * txn_count
    )
    seq = state.seq
    alive = state.alive
    read_indptr, read_txns = dense.read_indptr, dense.read_txns
    write_indptr, write_txns = dense.write_indptr, dense.write_txns
    delta_indptr, delta_txns = dense.delta_indptr, dense.delta_txns
    for addr_id in rank_order:
        read_lo, read_hi = read_indptr[addr_id], read_indptr[addr_id + 1]
        write_lo, write_hi = write_indptr[addr_id], write_indptr[addr_id + 1]
        delta_lo, delta_hi = delta_indptr[addr_id], delta_indptr[addr_id + 1]
        reads = [t for t in read_txns[read_lo:read_hi] if alive[t]]
        writes = [t for t in write_txns[write_lo:write_hi] if alive[t]]
        if delta_lo != delta_hi:
            # Delta-carrying addresses take the full pass: the constant
            # shortcuts below model the plain read/write shapes only.
            deltas = [t for t in delta_txns[delta_lo:delta_hi] if alive[t]]
            _sort_address_dense(
                dense, addr_id, reads, writes, deltas, state,
                enable_reorder, initial_seq,
            )
            continue
        if not writes:
            if not reads:
                continue
            # Reads-only address: reads share the minimum assigned number.
            fill = None
            for txn_idx in reads:
                sequence = seq[txn_idx]
                if sequence != UNASSIGNED and (fill is None or sequence < fill):
                    fill = sequence
            if fill is None:
                fill = initial_seq
            for txn_idx in reads:
                if seq[txn_idx] == UNASSIGNED:
                    seq[txn_idx] = fill
            continue
        if len(writes) == 1 and (
            not reads or (len(reads) == 1 and reads[0] == writes[0])
        ):
            # Single-owner address: at most one transaction holds units.
            owner = writes[0]
            if seq[owner] == UNASSIGNED:
                seq[owner] = initial_seq
            continue
        _sort_address_dense(
            dense, addr_id, reads, writes, [], state, enable_reorder, initial_seq
        )
    for txn_idx in range(txn_count):
        if alive[txn_idx] and seq[txn_idx] == UNASSIGNED:
            seq[txn_idx] = initial_seq
    return state


def _top_live_reader_dense(
    reads: Sequence[int], state: DenseSortState, exclude: int
) -> int:
    """Live reader holding the highest assigned number (first in list order).

    The attribution peer for an R<W / R<D violation: the reader whose
    number the violating write failed to clear.  ``UNKNOWN_PEER`` when no
    live assigned reader remains (the blocking reader itself aborted later
    in the same pass).
    """
    peer = UNKNOWN_PEER
    best = 0
    seq = state.seq
    alive = state.alive
    for reader in reads:
        if reader == exclude or not alive[reader]:
            continue
        sequence = seq[reader]
        if sequence != UNASSIGNED and sequence > best:
            best = sequence
            peer = reader
    return peer


def _sort_address_dense(
    dense: DenseACG,
    addr_id: int,
    reads: list[int],
    writes: list[int],
    deltas: list[int],
    state: DenseSortState,
    enable_reorder: bool,
    initial_seq: int,
) -> None:
    """Assign sequence numbers to the live units of one address (dense).

    ``reads``/``writes``/``deltas`` are the address's live unit lists,
    pre-filtered by the caller's liveness scan.
    """
    seq = state.seq
    alive = state.alive

    # --- Read units -------------------------------------------------------
    sorted_reads = [t for t in reads if seq[t] != UNASSIGNED]
    if not sorted_reads:
        for txn_idx in reads:
            seq[txn_idx] = initial_seq
        max_read = initial_seq if reads else 0
    else:
        values = [seq[t] for t in sorted_reads]
        min_seq = min(values)
        max_read = max(values)
        for txn_idx in reads:
            if seq[txn_idx] == UNASSIGNED:
                seq[txn_idx] = min_seq

    # --- Previously-assigned write units ----------------------------------
    read_ids = set(reads)
    sorted_writes = [t for t in writes if seq[t] != UNASSIGNED]

    # A transaction with both units on this address keeps one number placed
    # directly above the reads (paper line 17-19).  Rule 1 only constrains
    # *distinct* transactions, so the bump compares against the highest
    # read of the others and is skipped when the number already clears it
    # (a transaction sequenced higher on an earlier-ranked address).
    for txn_idx in sorted_writes:
        if txn_idx not in read_ids:
            continue
        other_max = max(
            (
                seq[reader]
                for reader in reads
                if reader != txn_idx and seq[reader] != UNASSIGNED
            ),
            default=0,
        )
        if seq[txn_idx] <= other_max:
            seq[txn_idx] = max(max_read, other_max) + 1
        max_read = max(max_read, seq[txn_idx])

    # Unserializability check (paper lines 20-24).  The paper tests
    # ``sequence < maxRead``; rule 1 requires reads to be *strictly*
    # smaller than writes, so equality is also invalid (see DESIGN.md).
    # A plain write landing on a previously-assigned delta number is the
    # same anomaly as a write-write duplicate (W≠D).
    delta_seqs_assigned = {
        seq[t]: t for t in reversed(deltas) if seq[t] != UNASSIGNED
    }
    seen_write_seqs: dict[int, int] = {}
    for txn_idx in sorted_writes:
        sequence = seq[txn_idx]
        duplicate = (
            sequence in seen_write_seqs and seen_write_seqs[sequence] != txn_idx
        )
        too_small = sequence <= max_read and txn_idx not in read_ids
        if too_small or duplicate or sequence in delta_seqs_assigned:
            if too_small:
                peer = _top_live_reader_dense(reads, state, txn_idx)
                edge = (peer, addr_id, EDGE_RW)
            elif duplicate:
                edge = (seen_write_seqs[sequence], addr_id, EDGE_WW)
            else:
                edge = (delta_seqs_assigned[sequence], addr_id, EDGE_WD)
            _resolve_unserializable_dense(
                dense, txn_idx, state, enable_reorder, edge
            )
        if alive[txn_idx]:
            seen_write_seqs[seq[txn_idx]] = txn_idx

    # --- Remaining write units --------------------------------------------
    write_seq = initial_seq if max_read == 0 else max_read + 1
    assigned_here = {
        seq[t]
        for t in (*reads, *writes, *deltas)
        if alive[t] and seq[t] != UNASSIGNED
    }
    for txn_idx in writes:
        if not alive[txn_idx] or seq[txn_idx] != UNASSIGNED:
            continue
        while write_seq in assigned_here:
            write_seq += 1
        seq[txn_idx] = write_seq
        assigned_here.add(write_seq)

    # --- Delta units ------------------------------------------------------
    # All deltas on the address converge on one shared number — the minimum
    # valid number already held by a previously-assigned delta, or a fresh
    # number above ``max_read`` that avoids every plain-write number (the
    # shared-read rule transplanted to the write side).  Previously-assigned
    # deltas breaking R<D or W≠D pay first.
    if deltas:
        writer_seqs = {
            seq[t]: t
            for t in reversed(writes)
            if alive[t] and seq[t] != UNASSIGNED
        }
        for txn_idx in deltas:
            sequence = seq[txn_idx]
            if sequence == UNASSIGNED:
                continue
            if sequence <= max_read or sequence in writer_seqs:
                if sequence <= max_read:
                    peer = _top_live_reader_dense(reads, state, txn_idx)
                    edge = (peer, addr_id, EDGE_RD)
                else:
                    edge = (writer_seqs[sequence], addr_id, EDGE_WD)
                _resolve_unserializable_dense(
                    dense, txn_idx, state, enable_reorder, edge
                )
        valid = [seq[t] for t in deltas if alive[t] and seq[t] != UNASSIGNED]
        if valid:
            fill = min(valid)
        else:
            fill = initial_seq if max_read == 0 else max_read + 1
            while fill in writer_seqs:
                fill += 1
        for txn_idx in deltas:
            if alive[txn_idx] and seq[txn_idx] == UNASSIGNED:
                seq[txn_idx] = fill


def _resolve_unserializable_dense(
    dense: DenseACG,
    txn_idx: int,
    state: DenseSortState,
    enable_reorder: bool,
    edge: DenseEdge | None = None,
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
    rescuable = (
        enable_reorder
        and dense.write_count_of(txn_idx) > 1
        and reads_are_writer_free_dense(dense, txn_idx, state)
    )
    if rescuable:
        state.seq[txn_idx] = 1 + max_sequence_on_addresses_dense(
            dense, txn_idx, state
        )
        state.reordered.add(txn_idx)
    else:
        state.abort(txn_idx, edge=edge)


def reads_are_writer_free_dense(
    dense: DenseACG, txn_idx: int, state: DenseSortState
) -> bool:
    """True when no other live transaction writes any address ``txn_idx`` reads.

    Delta units mutate their address, so they count as writers here.
    """
    alive = state.alive
    addrs = dense.txn_read_addrs
    for position in range(
        dense.txn_read_indptr[txn_idx], dense.txn_read_indptr[txn_idx + 1]
    ):
        addr_id = addrs[position]
        for writer in (*dense.writes_of(addr_id), *dense.deltas_of(addr_id)):
            if writer != txn_idx and alive[writer]:
                return False
    return True


def max_sequence_on_addresses_dense(
    dense: DenseACG, txn_idx: int, state: DenseSortState
) -> int:
    """Maximum sequence currently assigned on any address ``txn_idx`` touches."""
    seq = state.seq
    alive = state.alive
    best = 0
    read_addrs = dense.txn_read_addrs[
        dense.txn_read_indptr[txn_idx] : dense.txn_read_indptr[txn_idx + 1]
    ]
    write_addrs = dense.txn_write_addrs[
        dense.txn_write_indptr[txn_idx] : dense.txn_write_indptr[txn_idx + 1]
    ]
    delta_addrs = dense.txn_delta_addrs[
        dense.txn_delta_indptr[txn_idx] : dense.txn_delta_indptr[txn_idx + 1]
    ]
    for addr_id in (*read_addrs, *write_addrs, *delta_addrs):
        for other in (
            *dense.reads_of(addr_id),
            *dense.writes_of(addr_id),
            *dense.deltas_of(addr_id),
        ):
            if not alive[other]:
                continue
            sequence = seq[other]
            if sequence != UNASSIGNED and sequence > best:
                best = sequence
    return best
