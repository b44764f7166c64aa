"""Integration tests for the simulated evaluation cluster."""

from __future__ import annotations

import pytest

from repro.net import Cluster, ClusterConfig, NodeSpec
from repro.vm.costmodel import ExecutionCostModel
from repro.workload import SmallBankConfig

CHAINS, BLOCK_SIZE = 2, 20


def small_cluster(scheme="nezha", skew=0.0, **config):
    spec = NodeSpec(
        scheme=scheme,
        chain_count=CHAINS,
        workload=SmallBankConfig(account_count=500, skew=skew, seed=5),
    )
    return Cluster(spec, ClusterConfig(block_size=BLOCK_SIZE, **config))


class TestCluster:
    def test_run_produces_outcomes(self):
        cluster = small_cluster()
        run = cluster.run_epochs(2)
        assert len(run.outcomes) == 2
        assert run.committed > 0
        assert run.effective_throughput > 0

    def test_block_interval_caps_throughput(self):
        cluster = small_cluster(block_interval=1.0)
        run = cluster.run_epochs(2)
        per_epoch = CHAINS * BLOCK_SIZE
        assert run.effective_throughput <= per_epoch / 1.0 + 1e-6

    def test_cost_model_slows_serial(self):
        cost = ExecutionCostModel(serial_seconds_per_txn=0.05)
        fast = small_cluster("serial").run_epochs(2)
        slow = small_cluster("serial", cost_model=cost).run_epochs(2)
        assert slow.effective_throughput < fast.effective_throughput

    def test_cost_model_charges_concurrent_less(self):
        cost = ExecutionCostModel(serial_seconds_per_txn=0.05, concurrent_speedup=38.0)
        serial = small_cluster("serial", cost_model=cost).run_epochs(2)
        nezha = small_cluster(cost_model=cost).run_epochs(2)
        assert nezha.effective_throughput > serial.effective_throughput

    def test_deterministic_commit_counts(self):
        first = small_cluster().run_epochs(2)
        second = small_cluster().run_epochs(2)
        assert first.committed == second.committed

    def test_mean_abort_rate_in_range(self):
        cluster = small_cluster(skew=0.9)
        run = cluster.run_epochs(2)
        assert 0.0 <= run.mean_abort_rate <= 1.0

    def test_invalid_config_rejected(self):
        from repro.errors import NetworkError

        with pytest.raises(NetworkError):
            ClusterConfig(block_interval=0)
        with pytest.raises(NetworkError):
            ClusterConfig(miner_count=0)

    def test_feed_client_fills_mempool(self):
        cluster = small_cluster()
        accepted = cluster.feed_client(50)
        assert accepted == 50
        assert len(cluster.mempool) == 50
