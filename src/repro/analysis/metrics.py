"""Statistical helpers for benchmark reporting."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class Summary:
    """Five-number-ish summary of repeated measurements."""

    count: int
    mean: float
    stdev: float
    minimum: float
    p50: float
    p95: float
    maximum: float

    @classmethod
    def of(cls, samples: Sequence[float]) -> "Summary":
        """Summarise a non-empty sample list."""
        if not samples:
            return cls(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        ordered = sorted(samples)
        count = len(ordered)
        mean = sum(ordered) / count
        variance = sum((x - mean) ** 2 for x in ordered) / count
        return cls(
            count=count,
            mean=mean,
            stdev=math.sqrt(variance),
            minimum=ordered[0],
            p50=percentile(ordered, 0.50),
            p95=percentile(ordered, 0.95),
            maximum=ordered[-1],
        )


def percentile(ordered: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile of an already-sorted sequence."""
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return ordered[0]
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    weight = position - low
    return ordered[low] * (1 - weight) + ordered[high] * weight


def speedup(baseline: float, improved: float) -> float:
    """How many times faster ``improved`` is than ``baseline``."""
    return baseline / improved if improved else math.inf
