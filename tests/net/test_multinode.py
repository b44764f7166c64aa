"""Multi-replica agreement tests (the determinism the paper relies on)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.baselines import OCCScheduler
from repro.errors import NetworkError
from repro.net import NodeSpec, ReplicaNetwork, ReplicaNetworkConfig
from repro.node import PipelineConfig
from repro.storage import MemStore
from repro.workload import SmallBankConfig

SMALL = ReplicaNetworkConfig(replica_count=3, block_size=20)


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
        network = ReplicaNetwork(small_spec(scheme), SMALL)
        agreements = network.run_epochs(3)
        assert len(agreements) == 3
        assert network.all_agreed
        for agreement in agreements:
            assert len(set(agreement.state_roots)) == 1
            assert len(set(agreement.committed)) == 1

    def test_roots_advance_each_epoch(self):
        network = ReplicaNetwork(small_spec(), SMALL)
        agreements = network.run_epochs(3)
        roots = [a.state_roots[0] for a in agreements]
        assert len(set(roots)) == 3

    def test_delivery_times_differ_but_results_agree(self):
        network = ReplicaNetwork(small_spec(), SMALL)
        agreement = network.run_epoch()
        # Per-replica links have distinct jitter seeds.
        assert len(set(agreement.delivery_times)) > 1
        assert agreement.agreed

    def test_single_replica_network(self):
        config = dataclasses.replace(SMALL, replica_count=1)
        network = ReplicaNetwork(small_spec(), config)
        assert network.run_epoch().agreed

    def test_svm_replicas_agree_and_certify_every_epoch(self):
        """The replicas run the full pipeline the spec names: SVM
        execution and the certifier, on every replica and every epoch."""
        network = ReplicaNetwork(small_spec(use_vm=True, certify=True), SMALL)
        agreements = network.run_epochs(3)
        assert len(agreements) == 3
        assert network.all_agreed
        for replica in network.replicas:
            assert replica.pipeline.executor.use_vm
            assert len(replica.reports) == 3
            for report in replica.reports:
                assert report.certificate is not None
                assert report.certificate.ok, report.certificate.summary()
        witnesses = {
            tuple(r.certificate.witness_digest for r in replica.reports)
            for replica in network.replicas
        }
        assert len(witnesses) == 1

    def test_replicas_cannot_share_a_store(self):
        with pytest.raises(TypeError):
            ReplicaNetwork(small_spec(), SMALL, store=MemStore())

    def test_invalid_config_rejected(self):
        with pytest.raises(NetworkError):
            ReplicaNetworkConfig(replica_count=0)

    def test_mixed_scheduler_fleet_diverges_detectably(self):
        """A replica running a different scheme must be detected.

        This is the negative control for the agreement machinery: OCC and
        Nezha commit different transaction sets under contention, so the
        roots genuinely differ and ``agreed`` must turn False.
        """
        network = ReplicaNetwork(small_spec(), SMALL)
        rogue = OCCScheduler()
        network.replicas[1].scheduler = rogue
        network.replicas[1].pipeline.scheduler = rogue
        agreements = network.run_epochs(3)
        assert not network.all_agreed
        # run_epochs stops at the first disagreement.
        assert not agreements[-1].agreed
