"""Tests for node metrics and cross-epoch duplicate suppression."""

from __future__ import annotations

import json

import pytest

from repro.core import NezhaScheduler
from repro.dag import EpochCoordinator, Mempool, ParallelChains, PoWParams
from repro.node import FullNode, PipelineConfig
from repro.obs import MetricsError, MetricsRegistry
from repro.state import StateDB
from repro.vm.contracts import default_registry
from repro.workload import SmallBankConfig, SmallBankWorkload, initial_state

POW = PoWParams(difficulty_bits=6)
CONFIG = SmallBankConfig(account_count=300, skew=0.4, seed=61)


class TestMetricsRegistry:
    def test_counter_increments(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.counter("c").inc(4)
        assert registry.snapshot()["c"] == 5

    def test_counter_cannot_decrease(self):
        with pytest.raises(MetricsError):
            MetricsRegistry().counter("c").inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(10)
        gauge.add(-3)
        assert gauge.value == 7

    def test_histogram_summary(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h")
        for value in (1.0, 2.0, 3.0, 4.0):
            histogram.observe(value)
        summary = registry.snapshot()["h"]
        assert summary["count"] == 4
        assert summary["mean"] == 2.5
        assert summary["max"] == 4.0

    def test_histogram_bounds_retention(self):
        histogram = MetricsRegistry().histogram("h")
        histogram.max_samples = 10
        for value in range(100):
            histogram.observe(float(value))
        assert histogram.count == 10
        assert min(histogram.samples) == 90.0

    def test_type_collision_rejected(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(MetricsError):
            registry.gauge("m")

    def test_json_roundtrip(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        assert json.loads(registry.to_json()) == {"c": 2}


class TestNodeMetrics:
    def test_epoch_processing_updates_metrics(self):
        state = StateDB()
        state.seed(initial_state(CONFIG))
        metrics = MetricsRegistry()
        node = FullNode(
            chains=ParallelChains(chain_count=2, pow_params=POW),
            state=state,
            scheduler=NezhaScheduler(),
            registry=default_registry(),
            metrics=metrics,
        )
        chains = ParallelChains(chain_count=2, pow_params=POW)
        coordinator = EpochCoordinator(chains=chains, miners=["m"], block_size=15)
        pool = Mempool()
        pool.submit_many(SmallBankWorkload(CONFIG).generate(100))
        for _ in range(2):
            blocks = coordinator.mine_epoch(pool, state_root=node.state_root)
            node.receive_epoch(blocks)
        snapshot = metrics.snapshot()
        assert snapshot["epochs_total"] == 2
        assert snapshot["txns_input_total"] == 60
        assert (
            snapshot["txns_committed_total"]
            + snapshot["txns_aborted_total"]
            + snapshot["txns_failed_simulation_total"]
            == 60
        )
        assert snapshot["epoch_latency_seconds"]["count"] == 2


class TestCrossEpochDedup:
    def build_node(self, streaming=False):
        state = StateDB()
        state.seed(initial_state(CONFIG))
        return FullNode(
            chains=ParallelChains(chain_count=2, pow_params=POW),
            state=state,
            scheduler=NezhaScheduler(),
            registry=default_registry(),
            config=PipelineConfig(streaming=streaming),
        )

    def test_repacked_transactions_not_reexecuted(self):
        node = self.build_node()
        chains = ParallelChains(chain_count=2, pow_params=POW)
        coordinator = EpochCoordinator(chains=chains, miners=["m"], block_size=10)
        pool = Mempool()
        workload = SmallBankWorkload(CONFIG)
        first_batch = workload.generate(20)
        pool.submit_many(first_batch)
        blocks = coordinator.mine_epoch(pool, state_root=node.state_root)
        report1 = node.receive_epoch(blocks)
        assert report1.input_transactions == 20

        # A lagging miner re-packs the same transactions next epoch.
        pool.forget({t.txid for t in first_batch})
        pool.submit_many(first_batch)
        blocks = coordinator.mine_epoch(pool, state_root=node.state_root)
        report2 = node.receive_epoch(blocks)
        assert report2.input_transactions == 0
        assert report2.committed == 0

    def test_repacked_transactions_not_respeculated_while_in_flight(self):
        """Streaming ingress: epoch 1 re-packs half of epoch 0 while
        epoch 0 is still on the back stage; epoch 2 re-packs all of it."""
        probe = self.build_node()
        chains = ParallelChains(chain_count=2, pow_params=POW)
        coordinator = EpochCoordinator(chains=chains, miners=["m"], block_size=10)
        pool = Mempool()
        batch = SmallBankWorkload(CONFIG).generate(30)
        first, fresh = batch[:20], batch[20:]
        mined = []
        for offered in (first, first[:10] + fresh, first):
            pool.forget({t.txid for t in offered})
            pool.submit_many(offered)
            blocks = coordinator.mine_epoch(pool, state_root=probe.state_root)
            mined.append(blocks)
            probe.receive_epoch(blocks)
        assert [r.input_transactions for r in probe.reports] == [20, 10, 0]

        with self.build_node(streaming=True) as node:
            for blocks in mined:
                node.submit_epoch(blocks)
            node.drain()
            stats = node.engine.stats
        assert [r.input_transactions for r in node.reports] == [20, 10, 0]
        assert [r.state_root for r in node.reports] == [
            r.state_root for r in probe.reports
        ]
        # Re-packed transactions were never speculated a second time, and
        # the guess still matched the admitted epoch (no barrier fallback).
        assert stats.speculated == 30
        assert stats.epochs_fallback == 0

    def test_epoch_transactions_exclude_parameter(self):
        from repro.dag.epochs import extract_epoch

        node = self.build_node()
        chains = ParallelChains(chain_count=2, pow_params=POW)
        coordinator = EpochCoordinator(chains=chains, miners=["m"], block_size=10)
        pool = Mempool()
        pool.submit_many(SmallBankWorkload(CONFIG).generate(40))
        coordinator.mine_epoch(pool, state_root=node.state_root)
        epoch = extract_epoch(chains, 0)
        all_ids = {t.txid for t in epoch.transactions()}
        half = set(list(all_ids)[:10])
        remaining = {t.txid for t in epoch.transactions(exclude=half)}
        assert remaining == all_ids - half
