"""Isolated transactions skip the ACG without changing the schedule.

``intern_batch`` splits off every transaction whose addresses no other
transaction of the batch touches, and the scheduler commits those at
``initial_seq`` without ranking, sorting or validating them.  Full Nezha
would give them the same number and its other decisions never read them,
so the schedule must equal the full-epoch string-keyed oracle
(``tests.reference.schedule_reference``) bit for bit.  The sweep covers
the benchmark's largest-state shape, where nearly every transaction is
isolated, and synthetic epochs from uniform to heavily skewed.
"""

from __future__ import annotations

import pytest

from repro.bench import smallbank_epoch
from repro.core import NezhaConfig, NezhaScheduler
from repro.txn import make_transaction
from repro.workload import SyntheticConfig, SyntheticWorkload

from tests.reference import schedule_reference

SYNTHETIC_TXNS = 600
POOL = 8
POOL_EVERY = 60
CONFIGS = (
    NezhaConfig(),
    NezhaConfig(enable_reorder=False),
    NezhaConfig(enable_validation=False, initial_seq=3),
)


def assert_full_epoch_schedule(txns, config=NezhaConfig()):
    """The scheduler's result equals the full-epoch oracle's; returns the
    share of the epoch that skipped the ACG."""
    fast = NezhaScheduler(config).schedule(txns)
    ref = schedule_reference(txns, config)
    assert fast.schedule == ref.schedule
    assert fast.abort_edges == ref.abort_edges
    assert fast.revived_txids == ref.revived_txids
    isolated = fast.dense_acg.batch.isolated
    group = next(g for g in fast.schedule.groups if g.sequence == config.initial_seq)
    assert set(isolated) <= set(group.txids)
    return len(isolated) / len(txns)


def synthetic_epoch(skew, address_count, seed=7):
    """3 reads + 2 writes per transaction, every ``POOL_EVERY``-th also
    reading one of ``POOL`` addresses that nothing writes; then a quarter
    as many read-only ones (2 reads) and a few that read 2 pool addresses
    only.  An address read by several transactions and written by none is
    shared, so its readers stay in the ACG: a pool-only reader takes the
    number its co-readers hold there, not ``initial_seq``."""

    def generate(reads, writes, count, seed):
        config = SyntheticConfig(
            address_count=address_count,
            reads_per_txn=reads,
            writes_per_txn=writes,
            skew=skew,
            seed=seed,
        )
        return SyntheticWorkload(config).generate(count)

    def pool(index):
        return f"pool:{index % POOL:02d}"

    def with_pool(txn):
        reads = list(txn.rwset.reads)
        if txn.txid % POOL_EVERY == 0:
            reads.append(pool(txn.txid // POOL_EVERY))
        return make_transaction(txn.txid, reads=reads, writes=txn.rwset.writes)

    txns = [with_pool(t) for t in generate(3, 2, SYNTHETIC_TXNS, seed)]
    readers = generate(2, 0, SYNTHETIC_TXNS // 4, seed + 1)
    pooled = range(SYNTHETIC_TXNS // POOL_EVERY)
    return (
        txns
        + [
            make_transaction(SYNTHETIC_TXNS + t.txid, reads=list(t.rwset.reads))
            for t in readers
        ]
        + [
            make_transaction(2 * SYNTHETIC_TXNS + i, reads=[pool(3 * i), pool(5 * i + 1)])
            for i in pooled
        ]
    )


@pytest.mark.parametrize("seed", (7, 11))
def test_largestate_shape(seed):
    """SmallBank at 100 k accounts, skew 0.2, ω 12 × 200."""
    txns = smallbank_epoch(12, 200, skew=0.2, seed=seed, account_count=100_000)
    assert assert_full_epoch_schedule(txns) >= 0.9


@pytest.mark.parametrize("config", CONFIGS, ids=("default", "no-reorder", "seq3"))
@pytest.mark.parametrize(
    "skew, address_count",
    ((0.0, 200_000), (0.6, 200_000), (0.9, 200_000), (0.9, 10_000)),
)
def test_synthetic_skews(skew, address_count, config):
    """From uniform to the hot-key shape (skew 0.9 over 10 k addresses)."""
    share = assert_full_epoch_schedule(synthetic_epoch(skew, address_count), config)
    assert 0.0 < share < 1.0
    if skew == 0.0:
        assert share >= 0.9


def test_shared_read_only_address_keeps_its_readers():
    """``r`` has no writer, but two transactions read it: T3 must take the
    number T2 holds there (2, above T1's read of ``w``), not ``initial_seq``."""
    txns = [
        make_transaction(1, reads=["w"]),
        make_transaction(2, reads=["r"], writes=["w"]),
        make_transaction(3, reads=["r"]),
    ]
    assert assert_full_epoch_schedule(txns) == 0.0
    assert NezhaScheduler().schedule(txns).schedule.sequences() == {1: 1, 2: 2, 3: 2}
