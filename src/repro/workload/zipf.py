"""Zipfian account sampling.

The paper drives contention with a Zipfian access distribution over 10k
accounts: ``P(rank k) proportional to 1 / k^skew``.  ``skew = 0`` degrades
to the uniform distribution, matching the paper's convention.

The sampler precomputes the cumulative distribution once (``O(n)``) and
draws samples by binary search (``O(log n)``), which keeps even the
largest benchmark sweeps cheap.
"""

from __future__ import annotations

import bisect
import itertools
import random
from typing import Iterator, Sequence

from repro.errors import WorkloadError

MAX_SKEW = 5.0
"""Largest accepted Zipf exponent.  The paper sweeps 0-1.0 and the tests
and benchmarks stay within 1.5.  Far above the cap nearly every draw is
rank 0, so drawing distinct accounts by rejection stalls, and ``rank**skew``
overflows a float."""


def check_skew(skew: float) -> float:
    """Return ``skew`` if it is a Zipf exponent in ``[0, MAX_SKEW]``
    (NaN and infinities are not); raise :class:`WorkloadError` otherwise."""
    if not 0.0 <= skew <= MAX_SKEW:
        raise WorkloadError(f"skew must be between 0 and {MAX_SKEW}, got {skew}")
    return skew


class ZipfSampler:
    """Draws account indices in ``[0, population)`` with Zipfian skew.

    Parameters
    ----------
    population:
        Number of distinct items (the paper uses 10,000 accounts).
    skew:
        The Zipfian exponent; 0 means uniform, at most :data:`MAX_SKEW`.
        The paper sweeps 0-1.0.
    seed:
        Seed for the internal PRNG; runs are reproducible given a seed.
    """

    def __init__(self, population: int, skew: float = 0.0, seed: int | None = None) -> None:
        if population <= 0:
            raise WorkloadError(f"population must be positive, got {population}")
        self.population = population
        self.skew = check_skew(skew)
        self._rng = random.Random(seed)
        self._cdf = self._build_cdf(population, skew)

    @staticmethod
    def _build_cdf(population: int, skew: float) -> list[float] | None:
        """Cumulative weights; ``None`` marks the uniform fast path."""
        if skew == 0:
            return None
        weights = [1.0 / (rank**skew) for rank in range(1, population + 1)]
        return list(itertools.accumulate(weights))

    def sample(self) -> int:
        """Draw one index; rank 0 is the hottest item."""
        if self._cdf is None:
            return self._rng.randrange(self.population)
        point = self._rng.random() * self._cdf[-1]
        return bisect.bisect_left(self._cdf, point)

    def sample_distinct(self, count: int) -> list[int]:
        """Draw ``count`` pairwise-distinct indices.

        Used for operations touching several different accounts (e.g.
        ``sendPayment``).  Rejection sampling keeps the Zipfian shape.
        """
        if count > self.population:
            raise WorkloadError(
                f"cannot draw {count} distinct items from population {self.population}"
            )
        chosen: list[int] = []
        seen: set[int] = set()
        while len(chosen) < count:
            candidate = self.sample()
            if candidate not in seen:
                seen.add(candidate)
                chosen.append(candidate)
        return chosen

    def probabilities(self) -> list[float]:
        """Exact access probability of each rank (analysis helper)."""
        if self._cdf is None:
            return [1.0 / self.population] * self.population
        total = self._cdf[-1]
        previous = 0.0
        probabilities = []
        for value in self._cdf:
            probabilities.append((value - previous) / total)
            previous = value
        return probabilities

    def stream(self) -> Iterator[int]:
        """Endless iterator of samples."""
        while True:
            yield self.sample()


def conflict_probability(probabilities: Sequence[float]) -> float:
    """Probability that two independent draws collide on the same item.

    This is the paper's per-pair conflict probability ``p`` for
    single-address transactions; used by the Table I analytical model.
    """
    return sum(p * p for p in probabilities)
