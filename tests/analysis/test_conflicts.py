"""Unit tests for the conflict model and metrics helpers."""

from __future__ import annotations

import math

from repro.analysis import (
    Summary,
    conflicts_per_address,
    expected_distinct_addresses,
    measure_conflicts,
    pairwise_conflict_count,
    percentile,
    speedup,
)
from repro.txn import make_transaction
from repro.workload import ZipfSampler


class TestPairwiseModel:
    def test_table1_coefficients(self):
        # Table I: block size 20, concurrency 2/4/6/8 -> 780p/3160p/7140p/12720p.
        assert pairwise_conflict_count(40) == 780
        assert pairwise_conflict_count(80) == 3160
        assert pairwise_conflict_count(120) == 7140
        assert pairwise_conflict_count(160) == 12720

    def test_probability_scales(self):
        assert pairwise_conflict_count(40, 0.5) == 390

    def test_power_law_growth(self):
        # Doubling N roughly quadruples conflicts.
        ratio = pairwise_conflict_count(80) / pairwise_conflict_count(40)
        assert 3.9 < ratio < 4.2


class TestDistinctAddresses:
    def test_uniform_matches_closed_form(self):
        sampler = ZipfSampler(population=100, skew=0.0)
        expected = 100 * (1 - (1 - 1 / 100) ** 50)
        assert math.isclose(
            expected_distinct_addresses(50, sampler), expected, rel_tol=1e-9
        )

    def test_skew_reduces_distinct(self):
        uniform = ZipfSampler(population=1000, skew=0.0)
        skewed = ZipfSampler(population=1000, skew=1.2)
        assert expected_distinct_addresses(200, skewed) < expected_distinct_addresses(
            200, uniform
        )

    def test_per_address_conflicts_rise_with_skew(self):
        uniform = ZipfSampler(population=10_000, skew=0.0)
        skewed = ZipfSampler(population=10_000, skew=1.0)
        assert conflicts_per_address(160, 2, skewed) > conflicts_per_address(
            160, 2, uniform
        )


class TestMeasurement:
    def test_no_conflicts(self):
        txns = [make_transaction(i, writes=[f"w{i}"]) for i in range(5)]
        measurement = measure_conflicts(txns)
        assert measurement.conflicting_pairs == 0
        assert measurement.conflict_probability == 0.0

    def test_all_conflict_on_hot_key(self):
        txns = [make_transaction(i, writes=["hot"]) for i in range(5)]
        measurement = measure_conflicts(txns)
        assert measurement.conflicting_pairs == 10  # C(5,2)
        assert measurement.conflict_probability == 1.0
        assert measurement.max_conflicts_on_address == 10

    def test_read_read_not_a_conflict(self):
        txns = [make_transaction(i, reads=["shared"]) for i in range(5)]
        assert measure_conflicts(txns).conflicting_pairs == 0

    def test_read_write_is_a_conflict(self):
        txns = [
            make_transaction(1, reads=["x"]),
            make_transaction(2, writes=["x"]),
        ]
        assert measure_conflicts(txns).conflicting_pairs == 1

    def test_pair_conflicting_on_two_addresses_counted_once_globally(self):
        txns = [
            make_transaction(1, writes=["x", "y"]),
            make_transaction(2, writes=["x", "y"]),
        ]
        measurement = measure_conflicts(txns)
        assert measurement.conflicting_pairs == 1
        assert measurement.mean_conflicts_per_address == 1.0  # once per address

    def test_distinct_addresses_counted(self):
        txns = [make_transaction(1, reads=["a"], writes=["b"])]
        assert measure_conflicts(txns).distinct_addresses == 2


class TestMetrics:
    def test_summary_of_constant(self):
        summary = Summary.of([5.0, 5.0, 5.0])
        assert summary.mean == 5.0
        assert summary.stdev == 0.0
        assert summary.p50 == 5.0

    def test_summary_percentiles(self):
        summary = Summary.of(list(map(float, range(1, 101))))
        assert summary.p50 == 50.5
        assert 95 < summary.p95 < 96.5

    def test_summary_empty(self):
        assert Summary.of([]).count == 0

    def test_percentile_single(self):
        assert percentile([7.0], 0.95) == 7.0

    def test_speedup(self):
        assert speedup(10.0, 2.0) == 5.0
        assert speedup(1.0, 0.0) == math.inf

