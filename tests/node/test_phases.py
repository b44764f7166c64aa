"""Unit tests for phase latency and epoch report accounting."""

from __future__ import annotations

from repro.node import EpochReport, PhaseLatencies


def make_report(**overrides):
    defaults = dict(
        epoch_index=0,
        scheme="nezha",
        block_concurrency=4,
        input_transactions=100,
        committed=80,
        aborted=15,
        failed_simulation=5,
        state_root=b"\x00" * 32,
    )
    defaults.update(overrides)
    return EpochReport(**defaults)


class TestPhaseLatencies:
    def test_total_sums_all_phases(self):
        phases = PhaseLatencies(
            validation=1.0, execution=2.0, concurrency_control=3.0, commitment=4.0
        )
        assert phases.total == 10.0

    def test_as_dict_covers_four_phases(self):
        assert set(PhaseLatencies().as_dict()) == {
            "validation",
            "execution",
            "concurrency_control",
            "commitment",
        }


class TestEpochReport:
    def test_abort_rate_excludes_failed_simulations(self):
        report = make_report()
        assert report.abort_rate == 15 / 95

    def test_abort_rate_empty(self):
        report = make_report(committed=0, aborted=0, failed_simulation=0)
        assert report.abort_rate == 0.0

    def test_commit_concurrency(self):
        report = make_report(commit_group_count=10)
        assert report.commit_concurrency == 8.0

    def test_commit_concurrency_no_groups(self):
        assert make_report(commit_group_count=0).commit_concurrency == 0.0
