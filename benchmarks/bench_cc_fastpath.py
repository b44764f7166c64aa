"""Extension — dense-ID fast path vs string-keyed reference CC pipeline.

Not a paper figure: measures every Nezha sub-phase (Figure 10's
breakdown) on both implementations over the same contended epoch and
emits a machine-readable ``benchmarks/results/BENCH_cc_fastpath.json``
(p50/p95 per sub-phase, old vs new) — the start of the repo's perf
trajectory.  The headline number is the speedup on
``rank_division + transaction_sorting`` at skew 0.6, ω=12, which the
fast path must keep ≥ 2×.

Run directly (``PYTHONPATH=src python benchmarks/bench_cc_fastpath.py``)
to refresh the JSON, or via pytest where the ``perf_smoke``-marked test
asserts the speedup floor.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import pytest

from repro.bench import smallbank_epoch
from repro.core import NezhaConfig, NezhaScheduler

RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_cc_fastpath.json"

SKEW = 0.6
OMEGA = 12
BLOCK_SIZE = 150
SEED = 10
ROUNDS = 9

PHASES = ("graph_construction", "rank_division", "transaction_sorting", "validation")
HEADLINE = "rank_plus_sort"
SPEEDUP_FLOOR = 2.0


def _percentiles(samples: list[float]) -> dict[str, float]:
    ordered = sorted(samples)
    rank = max(0, round(0.95 * (len(ordered) - 1)))
    return {
        "p50_ms": statistics.median(ordered) * 1e3,
        "p95_ms": ordered[rank] * 1e3,
    }


def _run_path(transactions, fast_path: bool, rounds: int) -> dict[str, dict[str, float]]:
    samples: dict[str, list[float]] = {phase: [] for phase in (*PHASES, HEADLINE)}
    scheduler = NezhaScheduler(NezhaConfig(fast_path=fast_path))
    for _ in range(rounds):
        timings = scheduler.schedule(transactions).timings
        for phase in PHASES:
            samples[phase].append(getattr(timings, phase))
        samples[HEADLINE].append(timings.rank_division + timings.transaction_sorting)
    return {phase: _percentiles(values) for phase, values in samples.items()}


def measure_fastpath(
    skew: float = SKEW,
    omega: int = OMEGA,
    block_size: int = BLOCK_SIZE,
    seed: int = SEED,
    rounds: int = ROUNDS,
) -> dict:
    """Measure both CC implementations; return the BENCH json payload."""
    transactions = smallbank_epoch(omega, block_size, skew=skew, seed=seed)
    fast = _run_path(transactions, fast_path=True, rounds=rounds)
    reference = _run_path(transactions, fast_path=False, rounds=rounds)
    speedup = reference[HEADLINE]["p50_ms"] / max(fast[HEADLINE]["p50_ms"], 1e-9)
    return {
        "benchmark": "cc_fastpath",
        "workload": {
            "generator": "smallbank",
            "skew": skew,
            "omega": omega,
            "block_size": block_size,
            "seed": seed,
            "txn_count": len(transactions),
        },
        "rounds": rounds,
        "fast": fast,
        "reference": reference,
        "speedup_rank_plus_sort_p50": round(speedup, 3),
    }


def write_results(payload: dict, path: Path = RESULTS_PATH) -> None:
    """Persist the machine-readable benchmark artifact."""
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


@pytest.mark.perf_smoke
def test_cc_fastpath_speedup(report_table):
    """Fast path must keep >= 2x on rank_division + transaction_sorting."""
    payload = measure_fastpath()
    rows = [
        [
            phase,
            f"{payload['fast'][phase]['p50_ms']:.2f}",
            f"{payload['fast'][phase]['p95_ms']:.2f}",
            f"{payload['reference'][phase]['p50_ms']:.2f}",
            f"{payload['reference'][phase]['p95_ms']:.2f}",
        ]
        for phase in (*PHASES, HEADLINE)
    ]
    table_lines = ["phase | fast p50 | fast p95 | ref p50 | ref p95 (ms)"]
    table_lines += [" | ".join(row) for row in rows]
    table_lines.append(
        f"speedup (rank+sort, p50): {payload['speedup_rank_plus_sort_p50']:.2f}x"
    )
    report_table("cc_fastpath", "\n".join(table_lines))
    assert payload["speedup_rank_plus_sort_p50"] >= SPEEDUP_FLOOR


def main() -> int:
    payload = measure_fastpath()
    write_results(payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    speedup = payload["speedup_rank_plus_sort_p50"]
    print(f"\nrank+sort speedup: {speedup:.2f}x (floor {SPEEDUP_FLOOR}x)")
    return 0 if speedup >= SPEEDUP_FLOOR else 1


if __name__ == "__main__":
    sys.exit(main())
