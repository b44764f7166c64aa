"""Cluster runs across every scheme (end-to-end scheme coverage)."""

from __future__ import annotations

import pytest

from repro.net import Cluster, ClusterConfig, NodeSpec
from repro.node import PipelineConfig
from repro.workload import SmallBankConfig


def small_cluster(scheme="nezha", skew=0.0, **pipeline):
    spec = NodeSpec(
        scheme=scheme,
        chain_count=2,
        workload=SmallBankConfig(account_count=400, skew=skew, seed=8),
        pipeline=PipelineConfig(**pipeline),
    )
    return Cluster(spec, ClusterConfig(block_size=15))


class TestClusterAcrossSchemes:
    @pytest.mark.parametrize("scheme", ["nezha", "cg", "occ", "pcc", "serial"])
    def test_two_epochs_commit(self, scheme):
        cluster = small_cluster(scheme)
        run = cluster.run_epochs(2)
        assert len(run.outcomes) == 2
        assert run.committed > 0
        for outcome in run.outcomes:
            assert outcome.epoch_seconds >= 1.0  # block interval floor

    def test_pcc_never_aborts_in_cluster(self):
        cluster = small_cluster("pcc", skew=1.0)
        run = cluster.run_epochs(2)
        assert run.mean_abort_rate == 0.0

    def test_serial_never_aborts_in_cluster(self):
        cluster = small_cluster("serial", skew=1.0)
        run = cluster.run_epochs(2)
        assert run.mean_abort_rate == 0.0

    def test_high_contention_nezha_still_commits(self):
        cluster = small_cluster(skew=1.2)
        run = cluster.run_epochs(2)
        assert run.committed > 0
        assert 0.0 < run.mean_abort_rate < 1.0

    def test_state_roots_advance(self):
        cluster = small_cluster()
        run = cluster.run_epochs(3)
        roots = [outcome.report.state_root for outcome in run.outcomes]
        assert len(set(roots)) == 3

    def test_vm_execution_cluster(self):
        cluster = small_cluster(use_vm=True)
        run = cluster.run_epochs(1)
        assert run.committed > 0
