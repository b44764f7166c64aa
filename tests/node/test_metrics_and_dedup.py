"""Tests for node metrics and cross-epoch duplicate suppression."""

from __future__ import annotations

from collections import Counter

from repro.core import NezhaScheduler
from repro.dag import EpochCoordinator, Mempool, ParallelChains, PoWParams
from repro.node import FullNode, PipelineConfig
from repro.obs import node_families, parse_prometheus, render_prometheus
from repro.state import StateDB
from repro.vm.contracts import default_registry
from repro.workload import SmallBankConfig, SmallBankWorkload, initial_state

POW = PoWParams(difficulty_bits=6)
CONFIG = SmallBankConfig(account_count=300, skew=0.4, seed=61)


class TestNodeMetrics:
    def test_epoch_processing_updates_metrics(self):
        state = StateDB()
        state.seed(initial_state(CONFIG))
        node = FullNode(
            chains=ParallelChains(chain_count=2, pow_params=POW),
            state=state,
            scheduler=NezhaScheduler(),
            registry=default_registry(),
        )
        chains = ParallelChains(chain_count=2, pow_params=POW)
        coordinator = EpochCoordinator(chains=chains, miners=["m"], block_size=15)
        pool = Mempool()
        pool.submit_many(SmallBankWorkload(CONFIG).generate(100))
        for _ in range(2):
            blocks = coordinator.mine_epoch(pool, state_root=node.state_root)
            node.receive_epoch(blocks)
        families = parse_prometheus(render_prometheus(node_families(node.reports)))
        value = {
            sample: value
            for family in families.values()
            for sample, labels, value in family["samples"]
            if not labels
        }
        assert value["epochs_total"] == 2
        assert value["txns_input_total"] == 60
        assert (
            value["txns_committed_total"]
            + value["txns_aborted_total"]
            + value["txns_failed_simulation_total"]
            == 60
        )
        assert value["epoch_latency_seconds_count"] == 2


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


class TestRenderedFromReports:
    def test_counters_sum_reports_and_gauges_read_engine_stats(self):
        from repro.net import Cluster, ClusterConfig, NodeSpec

        spec = NodeSpec(
            chain_count=2,
            workload=SmallBankConfig(account_count=200, skew=0.9, seed=5),
            pipeline=PipelineConfig(streaming=True, certify=True, delta_cc=True),
            pow=POW,
        )
        with Cluster(spec, ClusterConfig(block_size=30)) as cluster:
            cluster.run_epochs(3)
        node = cluster.node
        reports, stats = node.reports, node.engine.stats
        families = parse_prometheus(render_prometheus(node_families(reports, stats)))

        def total(field):
            return sum(getattr(report, field) for report in reports)

        reasons = Counter()
        for report in reports:
            reasons.update(report.abort_reasons)
        expected = {
            ("epochs_total", ()): 3,
            ("epochs_by_scheme_total", ("nezha",)): 3,
            ("txns_input_total", ()): total("input_transactions"),
            ("txns_committed_total", ()): total("committed"),
            ("txns_aborted_total", ()): total("aborted"),
            ("txns_failed_simulation_total", ()): total("failed_simulation"),
            ("txns_delta_commuted_total", ()): total("delta_commuted"),
        }
        expected.update(
            {("txns_abort_reason_total", (reason,)): n for reason, n in reasons.items()}
        )
        if total("revived"):  # appears once nonzero, like delta_commuted
            expected["txns_revived_total", ()] = total("revived")
        counters = {
            (sample, tuple(labels.values())): value
            for family in families.values()
            if family["type"] == "counter"
            for sample, labels, value in family["samples"]
        }
        assert total("aborted") and total("delta_commuted")
        assert counters == expected

        gauges = {
            name: family["samples"][0][2]
            for name, family in families.items()
            if name.startswith("engine_")
        }
        assert gauges == {
            "engine_speculation_hit_rate": stats.hit_rate,
            "engine_speculated_total": stats.speculated,
            "engine_kept_total": stats.kept,
            "engine_reexecuted_total": stats.reexecuted,
            "engine_epochs_streamed": stats.epochs_streamed,
            "engine_epochs_fallback": stats.epochs_fallback,
        }
        assert stats.epochs_streamed == 3
