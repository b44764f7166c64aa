"""Ablation — conflict detection: ACG mapping vs pairwise comparison.

Quantifies the paper's core complexity claim (Section IV-B): ACG
construction is linear in the number of read/write units, while the
conventional conflict graph compares every pair of transactions
(``O((|V|^2 - |V|) / 2)``).  We time both constructions alone over
growing batch sizes; the ratio should widen roughly linearly with N.
"""

from __future__ import annotations

import time

from repro.baselines import build_conflict_graph
from repro.bench import render_table, scaled, smallbank_epoch
from repro.core import dense_acg_from_transactions

BATCH_SIZES = (100, 200, 400, 800, 1600)
SKEW = 0.4


def time_once(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def sweep():
    rows = []
    ratios = []
    for size in BATCH_SIZES:
        transactions = smallbank_epoch(1, scaled(size), skew=SKEW, seed=size)
        acg_seconds = min(
            time_once(lambda: dense_acg_from_transactions(transactions))
            for _ in range(3)
        )
        cg_seconds = min(
            time_once(lambda: build_conflict_graph(transactions)) for _ in range(3)
        )
        ratio = cg_seconds / acg_seconds if acg_seconds else float("inf")
        ratios.append(ratio)
        rows.append(
            [
                len(transactions),
                f"{acg_seconds * 1000:.2f}",
                f"{cg_seconds * 1000:.2f}",
                f"{ratio:.1f}x",
            ]
        )
    return rows, ratios


def test_ablation_detection_cost(benchmark, report_table):
    rows, ratios = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = render_table(
        "Ablation: conflict detection cost, ACG vs pairwise CG",
        ["txns", "ACG build (ms)", "CG build (ms)", "CG/ACG"],
        rows,
        note="ACG is O(units); pairwise comparison is O(N^2)",
    )
    report_table("ablation_detection", table)
    # The gap must widen with batch size (quadratic vs linear).
    assert ratios[-1] > ratios[0] * 2
    # And CG construction is slower at every non-trivial size.
    assert all(r > 1.0 for r in ratios[1:])


def test_acg_construction_point(benchmark):
    transactions = smallbank_epoch(4, scaled(200), skew=0.4, seed=9)
    benchmark(lambda: dense_acg_from_transactions(transactions))


def test_cg_construction_point(benchmark):
    transactions = smallbank_epoch(4, scaled(200), skew=0.4, seed=9)
    benchmark.pedantic(
        lambda: build_conflict_graph(transactions), rounds=3, iterations=1
    )
