"""``IncrementalACG``: the streaming engine's per-epoch accumulator.

The streaming engine collects the reconciled epoch's transactions and
seals them into the dense graph it hands ``schedule_dense``; the barrier
pipeline builds the graph inside ``schedule``.  Nezha's CC is
deterministic over the dense graph, so the seal must be *bit*-identical
to ``build_dense_acg(intern_batch(...))`` over the same transaction set,
however the blocks were split or ordered on arrival.
"""

from __future__ import annotations

import random

import pytest

from repro.core import (
    IncrementalACG,
    NezhaScheduler,
    build_dense_acg,
    dense_acg_equal,
    intern_batch,
)
from repro.errors import SchedulingError
from repro.txn import make_transaction


def random_batch(rng, max_txns=60, max_addrs=12, with_deltas=False):
    txns = []
    addr_count = rng.randint(1, max_addrs)
    per_txn = min(3, addr_count)
    for txid in range(1, rng.randint(1, max_txns) + 1):
        reads = rng.sample(range(addr_count), k=rng.randint(0, per_txn))
        writes = rng.sample(range(addr_count), k=rng.randint(0, per_txn))
        deltas = None
        if with_deltas and rng.random() < 0.4:
            taken = set(reads) | set(writes)
            deltas = {
                f"a{i}": rng.randint(-5, 5)
                for i in rng.sample(range(addr_count), k=rng.randint(1, per_txn))
                if i not in taken
            }
        txns.append(
            make_transaction(
                txid,
                reads=[f"a{i}" for i in reads],
                writes=[f"a{i}" for i in writes],
                deltas=deltas,
            )
        )
    return txns


def chunked(txns, rng):
    """Split a batch into random contiguous 'blocks'."""
    blocks, i = [], 0
    while i < len(txns):
        size = rng.randint(1, max(1, len(txns) // 3))
        blocks.append(txns[i : i + size])
        i += size
    return blocks


class TestSealBitIdentity:
    def test_empty_graph_seals(self):
        dense = IncrementalACG().seal()
        assert dense.batch.txids == []
        assert dense.edge_mult == {}

    @pytest.mark.parametrize("seed", range(30))
    def test_blockwise_seal_equals_one_shot(self, seed):
        rng = random.Random(seed)
        txns = random_batch(rng, with_deltas=seed % 2 == 0)
        reference = build_dense_acg(intern_batch(txns))
        acg = IncrementalACG()
        for block in chunked(txns, rng):
            acg.add_block(block)
        assert dense_acg_equal(acg.seal(), reference)

    @pytest.mark.parametrize("seed", range(10))
    def test_arrival_order_does_not_matter(self, seed):
        """Blocks arrive in chain order, not txid order; the seal sorts."""
        rng = random.Random(seed)
        txns = random_batch(rng)
        reference = build_dense_acg(intern_batch(txns))
        shuffled = list(txns)
        rng.shuffle(shuffled)
        acg = IncrementalACG()
        for block in chunked(shuffled, rng):
            acg.add_block(block)
        assert dense_acg_equal(acg.seal(), reference)

    def test_isolated_transactions_are_compared(self):
        """Two epochs that differ only in an isolated transaction build the
        same CSR arrays; the helper must still tell them apart."""
        shared = [
            make_transaction(1, reads=["a"], writes=["b"]),
            make_transaction(2, reads=["b"], writes=["a"]),
        ]
        left = build_dense_acg(intern_batch([*shared, make_transaction(3)]))
        right = build_dense_acg(intern_batch([*shared, make_transaction(4)]))
        assert left.batch.isolated == [3]
        assert right.batch.isolated == [4]
        assert not dense_acg_equal(left, right)
        again = build_dense_acg(intern_batch([make_transaction(3), *shared[::-1]]))
        assert dense_acg_equal(left, again)

    def test_duplicate_txid_rejected(self):
        acg = IncrementalACG()
        acg.add_block([make_transaction(1, reads=["a"])])
        with pytest.raises(SchedulingError):
            acg.add_block([make_transaction(1, writes=["b"])])


class TestSchedulerEquivalence:
    @pytest.mark.parametrize("seed", range(10))
    def test_schedule_dense_matches_schedule(self, seed):
        """End to end: a sealed incremental graph scheduled via
        ``schedule_dense`` equals scheduling the transactions directly."""
        rng = random.Random(seed)
        txns = random_batch(rng, with_deltas=True)
        acg = IncrementalACG()
        for block in chunked(txns, rng):
            acg.add_block(block)
        via_dense = NezhaScheduler().schedule_dense(acg.seal(), 0.0)
        direct = NezhaScheduler().schedule(txns)
        assert via_dense.schedule.aborted == direct.schedule.aborted
        assert list(via_dense.schedule.sequences()) == list(
            direct.schedule.sequences()
        )
