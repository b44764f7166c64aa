"""Extension — the full scheme matrix across workloads and contention.

Not a paper figure: a summary table covering every implemented scheme
(Serial, OCC, PCC, CG, Nezha, Nezha-no-enhancement) on both contract
workloads (SmallBank and the token economy) at three contention levels.
This is the one-stop comparison Table II gestures at qualitatively.
"""

from __future__ import annotations

from repro.bench import render_table, run_scheme, scaled
from repro.node import make_scheme
from repro.workload import (
    SmallBankConfig,
    SmallBankWorkload,
    TokenConfig,
    TokenWorkload,
    flatten_blocks,
)

SKEWS = (0.2, 0.6, 1.0)
OMEGA = 2
BLOCK_SIZE = 75
SCHEME_NAMES = ("serial", "occ", "pcc", "cg", "nezha", "nezha-noreorder")
CG_CYCLE_BUDGET = 150_000


def batch_for(workload_name: str, skew: float):
    if workload_name == "smallbank":
        workload = SmallBankWorkload(SmallBankConfig(skew=skew, seed=800))
    else:
        workload = TokenWorkload(TokenConfig(skew=skew, seed=800))
    return flatten_blocks(workload.generate_blocks(OMEGA, scaled(BLOCK_SIZE)))


def sweep():
    rows = []
    nezha_beats_occ = 0
    cells = 0
    for workload_name in ("smallbank", "token"):
        for skew in SKEWS:
            transactions = batch_for(workload_name, skew)
            occ_aborts = None
            for scheme_name in SCHEME_NAMES:
                run = run_scheme(
                    make_scheme(scheme_name, cycle_budget=CG_CYCLE_BUDGET),
                    transactions,
                )
                if run.failed:
                    rows.append([workload_name, skew, scheme_name, "-", "-", "-", "FAIL"])
                    continue
                if scheme_name == "occ":
                    occ_aborts = run.schedule.aborted_count
                if scheme_name == "nezha" and occ_aborts is not None:
                    cells += 1
                    if run.schedule.aborted_count <= occ_aborts:
                        nezha_beats_occ += 1
                rows.append(
                    [
                        workload_name,
                        skew,
                        scheme_name,
                        run.schedule.committed_count,
                        f"{100 * run.schedule.abort_rate:.1f}%",
                        f"{run.schedule.mean_group_size:.1f}",
                        f"{run.total_seconds * 1000:.2f}",
                    ]
                )
    return rows, nezha_beats_occ, cells


def test_scheme_matrix(benchmark, report_table):
    rows, nezha_beats_occ, cells = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = render_table(
        "Extension: scheme matrix (both workloads, three contention levels)",
        [
            "workload",
            "skew",
            "scheme",
            "committed",
            "aborts",
            "grp size",
            "latency (ms)",
        ],
        rows,
        note="PCC never aborts (locks); Serial commits everything serially",
    )
    report_table("scheme_matrix", table)
    # Nezha commits at least as much as plain OCC on every cell measured.
    assert nezha_beats_occ == cells
    # PCC rows never abort.
    for row in rows:
        if row[2] == "pcc" and row[4] != "-":
            assert row[4] == "0.0%"
