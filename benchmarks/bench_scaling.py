"""Extension — asymptotic scaling of Nezha's concurrency control.

Section IV-B claims ACG construction is linear in the number of units and
hierarchical sorting avoids any quadratic pass.  This bench measures
end-to-end Nezha scheduling cost across a 16x range of batch sizes and
asserts near-linear growth (doubling the batch must cost well under 3x),
in contrast to the pairwise CG construction measured in
``bench_ablation_detection.py``.
"""

from __future__ import annotations

from repro.analysis import Summary
from repro.bench import render_table, run_scheme, scaled, smallbank_epoch
from repro.node import make_scheme

SIZES = (250, 500, 1_000, 2_000, 4_000)
SKEW = 0.4
ROUNDS = 3


def sweep():
    rows = []
    means = []
    for size in SIZES:
        transactions = smallbank_epoch(1, scaled(size), skew=SKEW, seed=size)
        samples = [
            run_scheme(make_scheme("nezha"), transactions).total_seconds
            for _ in range(ROUNDS)
        ]
        mean = Summary.of(samples).mean
        means.append(mean)
        per_txn = mean / max(len(transactions), 1) * 1e6
        rows.append(
            [
                len(transactions),
                f"{mean * 1000:.2f}",
                f"{per_txn:.1f}",
            ]
        )
    return rows, means


def test_nezha_scales_linearly(benchmark, report_table):
    rows, means = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = render_table(
        "Extension: Nezha CC latency vs batch size (skew 0.4)",
        ["txns", "latency (ms)", "us per txn"],
        rows,
        note="near-constant us/txn = the paper's linear-time claim",
    )
    report_table("scaling", table)
    for smaller, larger in zip(means, means[1:]):
        assert larger < smaller * 3.2, "super-linear growth detected"
    # Over the whole 16x range, cost per transaction at the top is within
    # 4x of the bottom (allows cache effects, forbids quadratic blowup).
    per_txn_small = means[0] / SIZES[0]
    per_txn_large = means[-1] / SIZES[-1]
    assert per_txn_large < per_txn_small * 4
