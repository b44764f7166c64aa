"""Figure 10 — latency of each concurrency-control sub-phase.

Paper setting: block concurrency 4, skew in {0.5, 0.6}, block size 200.
Findings: for CG, graph construction dominates at skew 0.5 and cycle
detection/removal explodes at 0.6; Nezha's graph construction is
negligible and its sorting latency stays stable as skew rises.

Default block size here is 150 — large enough that CG's cycle phase is
clearly dominant at skew 0.6 yet still completes within its cycle budget,
mirroring the paper's last measurable point.
"""

from __future__ import annotations

from repro.bench import render_table, run_scheme, scaled, smallbank_epoch
from repro.node import make_scheme

SKEWS = (0.5, 0.6)
OMEGA = 4
BLOCK_SIZE = 150
CG_CYCLE_BUDGET = 400_000


def sweep():
    rows = []
    for skew in SKEWS:
        transactions = smallbank_epoch(OMEGA, scaled(BLOCK_SIZE), skew=skew, seed=10)
        nezha = run_scheme(make_scheme("nezha"), transactions)
        cg = run_scheme(make_scheme("cg", cycle_budget=CG_CYCLE_BUDGET), transactions)
        for phase, seconds in nezha.phase_seconds.items():
            rows.append([skew, "nezha", phase, f"{seconds * 1000:.2f}"])
        for phase, seconds in cg.phase_seconds.items():
            label = f"{seconds * 1000:.2f}" + (" (FAILED)" if cg.failed else "")
            rows.append([skew, "cg", phase, label])
    return rows


def test_fig10_subphase_latency(benchmark, report_table):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = render_table(
        "Figure 10: per-sub-phase CC latency (ms), omega=4",
        ["skew", "scheme", "phase", "latency (ms)"],
        rows,
        note="paper: CG construction dominates at 0.5, cycle handling explodes at 0.6",
    )
    report_table("fig10_subphases", table)

    def phase_ms(skew, scheme, phase):
        for row in rows:
            if row[0] == skew and row[1] == scheme and row[2] == phase:
                return float(row[3].split()[0])
        raise AssertionError(f"missing cell {skew}/{scheme}/{phase}")

    # Nezha's construction cost is tiny relative to CG's at both skews.
    for skew in SKEWS:
        assert phase_ms(skew, "nezha", "graph_construction") < phase_ms(
            skew, "cg", "graph_construction"
        )
    # CG's cycle phase explodes between skew 0.5 and 0.6 (paper's story).
    assert phase_ms(0.6, "cg", "cycle_detection") > 5 * phase_ms(
        0.5, "cg", "cycle_detection"
    )
    # Nezha's sorting stays stable as skew rises.
    assert phase_ms(0.6, "nezha", "transaction_sorting") < 10 * max(
        phase_ms(0.5, "nezha", "transaction_sorting"), 0.5
    )
