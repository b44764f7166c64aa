"""Unit tests for the Zipfian sampler."""

from __future__ import annotations

import math

import pytest

from repro.errors import WorkloadError
from repro.workload import ZipfSampler, conflict_probability
from repro.workload.zipf import MAX_SKEW


def draw(sampler, count):
    return [sampler.sample() for _ in range(count)]


class TestZipfSampler:
    def test_rejects_bad_population(self):
        with pytest.raises(WorkloadError):
            ZipfSampler(population=0)

    def test_rejects_negative_skew(self):
        with pytest.raises(WorkloadError):
            ZipfSampler(population=10, skew=-0.1)

    @pytest.mark.parametrize("skew", [math.nan, math.inf, -math.inf, MAX_SKEW + 0.01, 400.0])
    def test_rejects_non_finite_or_huge_skew(self, skew):
        with pytest.raises(WorkloadError, match="skew must be between 0 and"):
            ZipfSampler(population=1_000, skew=skew)

    def test_accepts_the_cap(self):
        sampler = ZipfSampler(population=1_000, skew=MAX_SKEW, seed=1)
        assert len(set(sampler.sample_distinct(3))) == 3

    def test_samples_in_range(self):
        sampler = ZipfSampler(population=50, skew=0.9, seed=1)
        for _ in range(1_000):
            assert 0 <= sampler.sample() < 50

    def test_seeded_runs_reproducible(self):
        first = draw(ZipfSampler(100, 0.7, seed=42), 200)
        second = draw(ZipfSampler(100, 0.7, seed=42), 200)
        assert first == second

    def test_uniform_when_skew_zero(self):
        sampler = ZipfSampler(population=4, skew=0.0, seed=7)
        counts = [0, 0, 0, 0]
        for _ in range(8_000):
            counts[sampler.sample()] += 1
        for count in counts:
            assert abs(count - 2_000) < 250

    def test_skew_concentrates_on_low_ranks(self):
        sampler = ZipfSampler(population=1_000, skew=1.0, seed=3)
        draws = draw(sampler, 5_000)
        head = sum(1 for d in draws if d < 10)
        assert head / len(draws) > 0.2

    def test_higher_skew_more_concentrated(self):
        def head_mass(skew):
            sampler = ZipfSampler(population=1_000, skew=skew, seed=5)
            draws = draw(sampler, 4_000)
            return sum(1 for d in draws if d < 10) / len(draws)

        assert head_mass(1.2) > head_mass(0.6) > head_mass(0.0)

    def test_probabilities_sum_to_one(self):
        for skew in (0.0, 0.5, 1.3):
            sampler = ZipfSampler(population=200, skew=skew, seed=11)
            assert math.isclose(sum(sampler.probabilities()), 1.0, rel_tol=1e-9)

    def test_probabilities_match_zipf_ratio(self):
        sampler = ZipfSampler(population=100, skew=1.0, seed=11)
        probabilities = sampler.probabilities()
        assert math.isclose(probabilities[0] / probabilities[1], 2.0, rel_tol=1e-9)

    def test_sample_distinct_returns_unique(self):
        sampler = ZipfSampler(population=10, skew=1.5, seed=9)
        for _ in range(100):
            drawn = sampler.sample_distinct(3)
            assert len(set(drawn)) == 3

    def test_sample_distinct_too_many_raises(self):
        with pytest.raises(WorkloadError):
            ZipfSampler(population=2).sample_distinct(3)


class TestConflictProbability:
    def test_uniform(self):
        assert math.isclose(conflict_probability([0.25] * 4), 0.25)

    def test_degenerate(self):
        assert conflict_probability([1.0]) == 1.0

    def test_skew_raises_probability(self):
        uniform = conflict_probability([0.25] * 4)
        skewed = conflict_probability([0.7, 0.1, 0.1, 0.1])
        assert skewed > uniform
