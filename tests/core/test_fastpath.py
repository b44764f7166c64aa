"""Dense <-> reference equivalence for the Nezha CC pipeline.

The dense-id pipeline ``NezhaScheduler`` runs must be *bit-identical* to
the string-keyed reference stage functions (chained by
``tests.reference.schedule_reference``): same sequence numbers, same
aborts, same reorder decisions and the same rank order after id ->
address translation (over the addresses that entered the ACG: the
reference ranks the whole epoch, isolated transactions included), on
every workload and under any input permutation.
"""

from __future__ import annotations

import random

import pytest

from repro.bench import smallbank_epoch
from repro.core import (
    NezhaConfig,
    NezhaScheduler,
    RankPolicy,
    build_dense_acg,
    dense_acg_from_transactions,
    intern_batch,
)
from repro.errors import SchedulingError
from repro.txn import make_transaction

from tests.reference import build_acg, schedule_reference

SKEWS = (0.2, 0.6, 0.99)
OMEGAS = (2, 8, 12)
BLOCK_SIZE = 25


def both_paths(txns, **knobs):
    config = NezhaConfig(**knobs)
    return NezhaScheduler(config).schedule(txns), schedule_reference(txns, config)


def assert_identical(fast, ref):
    assert fast.schedule.groups == ref.schedule.groups
    assert fast.schedule.aborted == ref.schedule.aborted
    assert fast.schedule.reordered == ref.schedule.reordered
    entered = fast.dense_acg.batch.addr_ids
    assert fast.rank_order == [a for a in ref.rank_order if a in entered]
    assert fast.schedule.sequences() == ref.schedule.sequences()
    assert fast.abort_edges == ref.abort_edges
    assert fast.revived_txids == ref.revived_txids


def random_batch(rng, max_txns=60, max_addrs=12):
    txns = []
    addr_count = rng.randint(1, max_addrs)
    per_txn = min(3, addr_count)
    for txid in range(1, rng.randint(1, max_txns) + 1):
        reads = rng.sample(range(addr_count), k=rng.randint(0, per_txn))
        writes = rng.sample(range(addr_count), k=rng.randint(0, per_txn))
        txns.append(
            make_transaction(
                txid,
                reads=[f"a{i}" for i in reads],
                writes=[f"a{i}" for i in writes],
            )
        )
    return txns


class TestInterner:
    def test_address_ids_follow_sort_order(self):
        txns = [
            make_transaction(1, reads=["b", "a"], writes=["c"]),
            make_transaction(2, reads=["c"], writes=["aa"]),
        ]
        batch = intern_batch(txns)
        assert batch.addresses == ["a", "aa", "b", "c"]
        assert batch.addr_ids == {"a": 0, "aa": 1, "b": 2, "c": 3}
        assert batch.isolated == []

    def test_txn_indices_follow_txid_order(self):
        txns = [
            make_transaction(9, writes=["x"]),
            make_transaction(3, reads=["x"]),
            make_transaction(7, writes=["x"]),
        ]
        batch = intern_batch(txns)
        assert batch.txids == [3, 7, 9]
        assert batch.txn_index == {3: 0, 7: 1, 9: 2}
        assert [t.txid for t in batch.transactions] == [3, 7, 9]

    def test_isolated_txids_ascending_and_unnumbered(self):
        txns = [
            make_transaction(8, reads=["p"], writes=["q"]),
            make_transaction(5, reads=["x"], writes=["y"]),
            make_transaction(4, reads=["y"], writes=["z"]),
            make_transaction(2, writes=["w"]),
            make_transaction(6, reads=["r"], writes=["r"]),
        ]
        batch = intern_batch(txns)
        assert batch.isolated == [2, 6, 8]
        assert batch.txids == [4, 5]
        assert batch.addresses == ["x", "y", "z"]
        assert batch.txn_index == {4: 0, 5: 1}

    def test_empty_footprint_is_isolated(self):
        batch = intern_batch(
            [
                make_transaction(3),
                make_transaction(1, writes=["a"]),
                make_transaction(2, reads=["a"]),
            ]
        )
        assert batch.isolated == [3]
        assert batch.txids == [1, 2]

    def test_duplicate_txid_rejected(self):
        with pytest.raises(SchedulingError):
            intern_batch([make_transaction(1), make_transaction(1)])

    def test_duplicate_isolated_txid_rejected(self):
        # Each copy alone would be isolated: the duplicate check runs first.
        with pytest.raises(SchedulingError, match="duplicate txid 4"):
            intern_batch(
                [make_transaction(4, writes=["a"]), make_transaction(4, writes=["b"])]
            )


class TestDenseACG:
    def test_matches_reference_on_paper_example(self, paper_transactions):
        reference = build_acg(paper_transactions)
        materialised = dense_acg_from_transactions(paper_transactions).to_acg()
        assert materialised.rw_lists == reference.rw_lists
        assert materialised.out_edges == reference.out_edges
        assert materialised.in_edges == reference.in_edges
        assert materialised.edge_multiplicity == reference.edge_multiplicity
        assert materialised.txn_count == reference.txn_count

    def test_matches_reference_on_random_batches(self):
        rng = random.Random(11)
        for _ in range(25):
            txns = random_batch(rng)
            reference = build_acg(txns)
            materialised = dense_acg_from_transactions(txns).to_acg()
            assert materialised.rw_lists == reference.rw_lists
            assert materialised.edge_multiplicity == reference.edge_multiplicity

    def test_unit_lists_are_ascending(self):
        rng = random.Random(12)
        dense = build_dense_acg(intern_batch(random_batch(rng)))
        for addr_id in range(dense.addr_count):
            reads = list(dense.reads_of(addr_id))
            writes = list(dense.writes_of(addr_id))
            assert reads == sorted(reads)
            assert writes == sorted(writes)

    def test_counts_match_reference(self, paper_transactions):
        reference = build_acg(paper_transactions)
        dense = dense_acg_from_transactions(paper_transactions)
        assert dense.edge_count == reference.edge_count
        assert dense.unit_count == sum(len(rw) for rw in reference.rw_lists.values())
        assert dense.txn_count == reference.txn_count


class TestScheduleEquivalence:
    @pytest.mark.parametrize("skew", SKEWS)
    @pytest.mark.parametrize("omega", OMEGAS)
    def test_smallbank_sweep(self, skew, omega):
        txns = smallbank_epoch(omega, BLOCK_SIZE, skew=skew, seed=17)
        fast, ref = both_paths(txns)
        assert_identical(fast, ref)

    @pytest.mark.parametrize("policy", list(RankPolicy))
    def test_rank_policies(self, policy):
        txns = smallbank_epoch(4, BLOCK_SIZE, skew=0.9, seed=3)
        fast, ref = both_paths(txns, rank_policy=policy)
        assert_identical(fast, ref)

    @pytest.mark.parametrize("enable_reorder", [True, False])
    @pytest.mark.parametrize("enable_validation", [True, False])
    def test_config_matrix_on_adversarial_batches(
        self, enable_reorder, enable_validation
    ):
        rng = random.Random(5)
        for _ in range(40):
            txns = random_batch(rng)
            fast, ref = both_paths(
                txns,
                enable_reorder=enable_reorder,
                enable_validation=enable_validation,
            )
            assert_identical(fast, ref)

    def test_paper_example(self, paper_transactions):
        fast, ref = both_paths(paper_transactions)
        assert_identical(fast, ref)
        assert fast.rank_order == ["A2", "A3", "A1", "A4"]

    def test_deterministic_under_permutation(self):
        txns = smallbank_epoch(8, BLOCK_SIZE, skew=0.6, seed=23)
        baseline = NezhaScheduler().schedule(txns)
        for seed in range(3):
            shuffled = txns[:]
            random.Random(seed).shuffle(shuffled)
            again = NezhaScheduler().schedule(shuffled)
            assert again.schedule == baseline.schedule
            assert again.rank_order == baseline.rank_order

    def test_result_materialises_acg(self, paper_transactions):
        fast = NezhaScheduler().schedule(paper_transactions)
        reference = build_acg(paper_transactions)
        assert fast.acg.rw_lists == reference.rw_lists
        assert fast.acg.edge_multiplicity == reference.edge_multiplicity

