"""Tests for the mixed workload combinator."""

from __future__ import annotations

import pytest

from repro.analysis.certify import certify_epoch
from repro.core import NezhaScheduler
from repro.errors import WorkloadError
from repro.workload import (
    MixedWorkload,
    SmallBankConfig,
    SmallBankWorkload,
    SyntheticConfig,
    SyntheticWorkload,
    TokenConfig,
    TokenWorkload,
    flatten_blocks,
)


def make_mixed(seed=0, weights=(0.5, 0.5)):
    return MixedWorkload(
        [
            (SmallBankWorkload(SmallBankConfig(account_count=100, seed=seed)), weights[0]),
            (TokenWorkload(TokenConfig(holder_count=100, seed=seed)), weights[1]),
        ],
        seed=seed,
    )


class TestMixing:
    def test_global_id_space(self):
        txns = make_mixed().generate(50)
        assert [t.txid for t in txns] == list(range(50))

    def test_both_sources_present(self):
        txns = make_mixed(seed=3).generate(200)
        contracts = {t.contract for t in txns}
        assert contracts == {"smallbank", "token"}

    def test_weights_respected_roughly(self):
        txns = make_mixed(seed=4, weights=(0.9, 0.1)).generate(500)
        bank_share = sum(1 for t in txns if t.contract == "smallbank") / len(txns)
        assert bank_share > 0.8

    def test_reproducible(self):
        a = make_mixed(seed=5).generate(60)
        b = make_mixed(seed=5).generate(60)
        assert [(t.contract, t.function, t.args) for t in a] == [
            (t.contract, t.function, t.args) for t in b
        ]

    def test_three_way_mix(self):
        mixed = MixedWorkload(
            [
                (SmallBankWorkload(SmallBankConfig(account_count=50, seed=1)), 1),
                (TokenWorkload(TokenConfig(holder_count=50, seed=1)), 1),
                (SyntheticWorkload(SyntheticConfig(address_count=50, seed=1)), 1),
            ],
            seed=1,
        )
        txns = mixed.generate(300)
        assert {t.contract for t in txns} == {"smallbank", "token", None}

    def test_blocks_shape(self):
        blocks = make_mixed().generate_blocks(3, 10)
        assert len(blocks) == 3
        assert all(len(b) == 10 for b in blocks)

    def test_invalid_configs_rejected(self):
        with pytest.raises(WorkloadError):
            MixedWorkload([])
        with pytest.raises(WorkloadError):
            MixedWorkload([(SmallBankWorkload(), 0.0)])

    def test_mixed_batches_schedule_cleanly(self):
        txns = flatten_blocks(make_mixed(seed=7).generate_blocks(2, 40))
        result = NezhaScheduler().schedule(txns)
        certificate = certify_epoch({t.txid: t.rwset for t in txns}, result.schedule)
        assert certificate.ok, certificate.summary()
