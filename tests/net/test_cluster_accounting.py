"""Accounting tests for cluster run aggregation."""

from __future__ import annotations

from repro.net import Cluster, ClusterConfig, NodeSpec
from repro.net.cluster import ClusterRun, EpochOutcome
from repro.node import EpochReport, PhaseLatencies
from repro.workload import SmallBankConfig


def make_outcome(committed=50, epoch_seconds=1.0, aborted=5):
    report = EpochReport(
        epoch_index=0,
        scheme="nezha",
        block_concurrency=2,
        input_transactions=committed + aborted,
        committed=committed,
        aborted=aborted,
        failed_simulation=0,
        state_root=b"\x00" * 32,
        phases=PhaseLatencies(),
    )
    return EpochOutcome(
        report=report, processing_seconds=0.1, epoch_seconds=epoch_seconds
    )


class TestAggregation:
    def test_effective_tps(self):
        outcome = make_outcome(committed=100, epoch_seconds=2.0)
        assert outcome.effective_tps == 50.0

    def test_zero_duration_guard(self):
        outcome = make_outcome(epoch_seconds=0.0)
        assert outcome.effective_tps == 0.0

    def test_run_totals(self):
        run = ClusterRun(outcomes=[make_outcome(), make_outcome(committed=30)])
        assert run.committed == 80
        assert run.duration == 2.0
        assert run.effective_throughput == 40.0

    def test_empty_run(self):
        run = ClusterRun()
        assert run.effective_throughput == 0.0
        assert run.mean_abort_rate == 0.0

    def test_mean_abort_rate(self):
        run = ClusterRun(
            outcomes=[make_outcome(committed=90, aborted=10), make_outcome(committed=70, aborted=30)]
        )
        assert abs(run.mean_abort_rate - 0.2) < 1e-9


class TestSimulatedClock:
    def test_simulated_time_advances_with_epochs(self):
        cluster = Cluster(
            NodeSpec(chain_count=2, workload=SmallBankConfig(account_count=200, seed=1)),
            ClusterConfig(block_size=10),
        )
        cluster.run_epochs(2)
        # At least two block intervals of simulated time elapsed.
        assert cluster.now >= 2.0
