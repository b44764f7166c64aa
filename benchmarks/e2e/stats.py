"""Estimators the benchmark reports with: per-epoch floors, the
ten-samples-beyond tail rule, quartile spread, and the host calibration loop.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from typing import Sequence

TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_SAMPLES_BEYOND = 10


def floors(repeats: Sequence[Sequence[float]]) -> list[float]:
    """Per-index minimum across repeats of one deterministic replay.

    Epoch *i* does identical work in every repeat, so whatever a repeat adds
    over the fastest one is the host, not the program.
    """
    if not repeats:
        raise ValueError("floors() needs at least one repeat")
    length = len(repeats[0])
    if any(len(repeat) != length for repeat in repeats):
        raise ValueError("repeats replayed different numbers of epochs")
    return [min(repeat[i] for repeat in repeats) for i in range(length)]


def percentile(samples: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (``pct`` in 0..100)."""
    if not samples:
        raise ValueError("percentile() of no samples")
    ordered = sorted(samples)
    position = (len(ordered) - 1) * pct / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_percentile(sample_count: int) -> float | None:
    """Highest ladder percentile with at least ten samples beyond it.

    ``None`` when not even the median qualifies (fewer than 20 samples).
    """
    best = None
    for pct in TAIL_LADDER:
        # Rounded: 10 000 × (100 − 99.9) / 100 is 9.999… in floating point.
        if round(sample_count * (100.0 - pct) / 100.0, 6) >= MIN_SAMPLES_BEYOND:
            best = pct
    return best


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 − Q1) ÷ median, the spread the regression bounds are sized by."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else float("inf")


def calibrate(runs: int = 10, rounds: int = 20_000) -> dict:
    """Time a fixed pure-Python + SHA-256 loop ``runs`` times.

    The loop never changes, so a slower minimum means a slower host and a
    wide min–max gap means a noisy one — neither is the program's doing.
    """
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        digest = b"calibrate"
        for _ in range(rounds):
            digest = hashlib.sha256(digest).digest()
        times.append(time.perf_counter() - start)
    low, high = min(times), max(times)
    return {
        "runs": runs,
        "min_s": low,
        "max_s": high,
        "spread": (high - low) / low,
    }
