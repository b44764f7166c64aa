"""Multi-replica agreement tests (the determinism the paper relies on)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.baselines import OCCScheduler
from repro.errors import NetworkError
from repro.net import Cluster, ClusterConfig, NodeSpec
from repro.node import PipelineConfig
from repro.storage.lsm import LSMStore
from repro.workload import SmallBankConfig

SMALL = ClusterConfig(replica_count=3, miner_count=4, block_size=20)


def small_spec(scheme="nezha", **pipeline):
    return NodeSpec(
        scheme=scheme,
        chain_count=2,
        workload=SmallBankConfig(account_count=300, skew=0.7),
        pipeline=PipelineConfig(**pipeline),
    )


class TestAgreement:
    @pytest.mark.parametrize("scheme", ["nezha", "cg", "occ", "pcc"])
    def test_replicas_agree_across_epochs(self, scheme):
        run = Cluster(small_spec(scheme), SMALL).run_epochs(3)
        assert len(run.outcomes) == 3
        assert run.all_agreed
        for outcome in run.outcomes:
            assert len(outcome.state_roots) == 3
            assert len(set(outcome.state_roots)) == 1
            assert len(set(outcome.committed)) == 1

    def test_roots_advance_each_epoch(self):
        run = Cluster(small_spec(), SMALL).run_epochs(3)
        roots = [outcome.state_roots[0] for outcome in run.outcomes]
        assert len(set(roots)) == 3

    def test_delivery_times_differ_but_results_agree(self):
        outcome = Cluster(small_spec(), SMALL).run_epochs(1).outcomes[0]
        # Per-replica links have distinct jitter seeds.
        assert len(set(outcome.delivery_times)) > 1
        assert outcome.agreed

    def test_single_replica_network(self):
        config = dataclasses.replace(SMALL, replica_count=1)
        cluster = Cluster(small_spec(), config)
        outcome = cluster.run_epochs(1).outcomes[0]
        assert len(cluster.nodes) == 1
        assert outcome.agreed

    def test_svm_replicas_agree_and_certify_every_epoch(self):
        """The replicas run the full pipeline the spec names: SVM
        execution and the certifier, on every replica and every epoch."""
        cluster = Cluster(small_spec(use_vm=True, certify=True), SMALL)
        run = cluster.run_epochs(3)
        assert len(run.outcomes) == 3
        assert run.all_agreed
        for replica in cluster.nodes:
            assert replica.pipeline.executor.use_vm
            assert len(replica.reports) == 3
            for report in replica.reports:
                assert report.certificate is not None
                assert report.certificate.ok, report.certificate.summary()
        witnesses = {
            tuple(r.certificate.witness_digest for r in replica.reports)
            for replica in cluster.nodes
        }
        assert len(witnesses) == 1

    def test_replicas_cannot_share_a_store(self, tmp_path):
        """The store goes to replica 0 only: replica 1 stays in memory and
        derives the same roots as the LSM-backed replica."""
        store = LSMStore(tmp_path / "lsm", flush_bytes=16 * 1024)
        config = dataclasses.replace(SMALL, replica_count=2)
        with Cluster(small_spec(), config, store=store) as cluster:
            run = cluster.run_epochs(3)
        assert len(run.outcomes) == 3
        assert run.all_agreed
        assert cluster.nodes[0].blockstore is not None
        assert cluster.nodes[1].blockstore is None
        assert store.get(b"n:" + cluster.nodes[1].state_root) is not None

    def test_invalid_config_rejected(self):
        with pytest.raises(NetworkError):
            ClusterConfig(replica_count=0)

    def test_mixed_scheduler_fleet_diverges_detectably(self):
        """A replica running a different scheme must be detected.

        This is the negative control for the agreement machinery: OCC and
        Nezha commit different transaction sets under contention, so the
        roots genuinely differ and ``agreed`` must turn False.
        """
        cluster = Cluster(small_spec(), SMALL)
        rogue = OCCScheduler()
        cluster.nodes[1].scheduler = rogue
        cluster.nodes[1].pipeline.scheduler = rogue
        run = cluster.run_epochs(3)
        assert not run.all_agreed
        # run_epochs stops at the first disagreement.
        assert not run.outcomes[-1].agreed
        assert all(outcome.agreed for outcome in run.outcomes[:-1])
