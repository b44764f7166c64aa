"""Per-epoch transaction accumulator for the streaming epoch engine.

The streaming engine hands the scheduler a pre-built dense graph
(:meth:`~repro.core.scheduler.NezhaScheduler.schedule_dense`).  It
collects the epoch's reconciled transactions here and :meth:`seal`
builds the graph with ``build_dense_acg(intern_batch(...))`` — the very
call the barrier scheduler makes — so streamed and barrier graphs are
identical by construction, whatever order the blocks arrived in.
"""

from __future__ import annotations

from array import array
from typing import Iterable

from repro.core.acg import DenseACG, build_dense_acg
from repro.core.interner import intern_batch
from repro.errors import SchedulingError
from repro.txn.transaction import Transaction


class IncrementalACG:
    """Accumulates one epoch's transactions block by block.

    Feed **successful simulated transactions** (rwsets attached) with
    :meth:`add_block`, then :meth:`seal` the dense CSR graph for rank
    division and sorting.
    """

    def __init__(self) -> None:
        self._txns: dict[int, Transaction] = {}

    def add_block(self, transactions: Iterable[Transaction]) -> None:
        """Add one block's simulated transactions to the epoch.

        Rejects duplicate txids exactly like
        :func:`~repro.core.interner.intern_batch`, so a block replayed
        twice fails loudly instead of silently overwriting itself.
        """
        txns = self._txns
        for txn in transactions:
            if txn.txid in txns:
                raise SchedulingError(f"duplicate txid {txn.txid} in batch")
            txns[txn.txid] = txn

    def seal(self) -> DenseACG:
        """Build the dense graph over everything added so far."""
        return build_dense_acg(intern_batch(self._txns.values()))


def _csr_equal(left: tuple[array, array], right: tuple[array, array]) -> bool:
    return left[0] == right[0] and left[1] == right[1]


def dense_acg_equal(left: DenseACG, right: DenseACG) -> bool:
    """Structural bit-equality of two dense graphs (test helper)."""
    return (
        left.batch.txids == right.batch.txids
        and left.batch.addresses == right.batch.addresses
        and _csr_equal(
            (left.read_indptr, left.read_txns),
            (right.read_indptr, right.read_txns),
        )
        and _csr_equal(
            (left.write_indptr, left.write_txns),
            (right.write_indptr, right.write_txns),
        )
        and _csr_equal(
            (left.delta_indptr, left.delta_txns),
            (right.delta_indptr, right.delta_txns),
        )
        and _csr_equal(
            (left.out_indptr, left.out_ids), (right.out_indptr, right.out_ids)
        )
        and _csr_equal(
            (left.in_indptr, left.in_ids), (right.in_indptr, right.in_ids)
        )
        and _csr_equal(
            (left.txn_read_indptr, left.txn_read_addrs),
            (right.txn_read_indptr, right.txn_read_addrs),
        )
        and _csr_equal(
            (left.txn_write_indptr, left.txn_write_addrs),
            (right.txn_write_indptr, right.txn_write_addrs),
        )
        and _csr_equal(
            (left.txn_delta_indptr, left.txn_delta_addrs),
            (right.txn_delta_indptr, right.txn_delta_addrs),
        )
        and left.edge_mult == right.edge_mult
    )
