"""Randomized multi-seed stress runs across schemes.

Broader (slower) confidence checks than the unit suite: many seeds, many
contention levels, every scheme, always asserting the three global
correctness properties — serializability, determinism, and state-root
agreement.  Kept within a CI-friendly time budget.
"""

from __future__ import annotations

import pytest

from repro.analysis.certify import certify_epoch
from repro.baselines import CGConfig, CGScheduler, OCCScheduler
from repro.core import NezhaScheduler
from repro.workload import (
    SmallBankConfig,
    SmallBankWorkload,
    TokenConfig,
    TokenWorkload,
    flatten_blocks,
)

from tests.workload.mixed import MixedWorkload


def smallbank_batch(seed, skew, size=120):
    workload = SmallBankWorkload(
        SmallBankConfig(account_count=400, skew=skew, seed=seed)
    )
    return flatten_blocks(workload.generate_blocks(2, size // 2))


def assert_certified(txns, schedule, scheme="nezha"):
    certificate = certify_epoch({t.txid: t.rwset for t in txns}, schedule, scheme=scheme)
    assert certificate.ok, certificate.summary()


class TestNezhaStress:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("skew", [0.0, 0.7, 1.3])
    def test_serializable_across_seeds_and_skews(self, seed, skew):
        txns = smallbank_batch(seed, skew)
        result = NezhaScheduler().schedule(txns)
        assert_certified(txns, result.schedule)

    @pytest.mark.parametrize("seed", range(4))
    def test_extreme_contention_two_accounts(self, seed):
        # Everyone hammers two customers: worst-case hot spot (two because
        # sendPayment/amalgamate need distinct source and destination).
        workload = SmallBankWorkload(
            SmallBankConfig(account_count=2, skew=0.0, seed=seed)
        )
        txns = workload.generate(80)
        result = NezhaScheduler().schedule(txns)
        assert_certified(txns, result.schedule)
        # Something must still commit (reads, at minimum, never abort).
        assert result.schedule.committed_count > 0

    def test_mixed_contract_stress(self):
        mixed = MixedWorkload(
            [
                (SmallBankWorkload(SmallBankConfig(account_count=200, skew=0.9, seed=5)), 1),
                (TokenWorkload(TokenConfig(holder_count=200, skew=0.9, seed=5)), 1),
            ],
            seed=5,
        )
        for _ in range(4):
            txns = mixed.generate(150)
            result = NezhaScheduler().schedule(txns)
            assert_certified(txns, result.schedule)


class TestCrossSchemeStress:
    @pytest.mark.parametrize("seed", range(4))
    def test_all_schemes_valid_on_same_batch(self, seed):
        txns = smallbank_batch(seed, skew=0.8, size=80)
        nezha = NezhaScheduler().schedule(txns)
        assert_certified(txns, nezha.schedule)
        occ = OCCScheduler().schedule(txns)
        assert_certified(txns, occ.schedule, "occ")
        cg = CGScheduler(CGConfig(cycle_budget=100_000)).schedule(txns)
        if not cg.failed:
            assert_certified(txns, cg.schedule, "cg")
        # Nezha's commit concurrency always beats the serial schedules.
        assert nezha.schedule.mean_group_size >= 1.0

    @pytest.mark.parametrize("seed", range(6))
    def test_determinism_under_permutation(self, seed):
        import random

        txns = smallbank_batch(seed, skew=1.0, size=80)
        shuffled = txns[:]
        random.Random(seed).shuffle(shuffled)
        assert (
            NezhaScheduler().schedule(txns).schedule
            == NezhaScheduler().schedule(shuffled).schedule
        )
