"""Figure 9 — concurrency-control + commitment latency, Nezha vs CG.

Paper setting: skew in {0.2, 0.4, 0.6, 0.8}, block concurrency 2-12,
block size 200.  The paper's findings: CG latency grows much faster than
Nezha's, exceeds 10 s at skew 0.6 / omega 12, and dies of OOM at skew 0.8
beyond omega 4, while Nezha stays under 100 ms throughout.

Our CG implementation fails by exhausting its Johnson cycle budget (the
OOM analogue, reported as FAIL below).  The default block size here is
100 (half the paper's) so the CG cells that the paper could still measure
complete in CI-friendly time; the crossover shape is identical — set
``REPRO_BENCH_SCALE=2`` for paper scale.
"""

from __future__ import annotations

from repro.analysis import Summary
from repro.bench import (
    print_table,
    render_series,
    render_table,
    run_scheme,
    scaled,
    smallbank_epoch,
)
from repro.node import make_scheme

SKEWS = (0.2, 0.4, 0.6, 0.8)
CONCURRENCIES = (2, 4, 8, 12)
BLOCK_SIZE = 100
CG_CYCLE_BUDGET = 150_000


def measure_cell(scheme_name, omega, skew, block_size):
    transactions = smallbank_epoch(omega, block_size, skew=skew, seed=42)
    run = run_scheme(
        make_scheme(scheme_name, cycle_budget=CG_CYCLE_BUDGET), transactions
    )
    return run


def sweep():
    block_size = scaled(BLOCK_SIZE)
    rows = []
    failures = []
    for skew in SKEWS:
        for omega in CONCURRENCIES:
            nezha = measure_cell("nezha", omega, skew, block_size)
            cg = measure_cell("cg", omega, skew, block_size)
            cg_cell = "FAIL(budget)" if cg.failed else f"{cg.total_seconds * 1000:,.1f}"
            if cg.failed:
                failures.append((skew, omega))
            rows.append(
                [
                    skew,
                    omega,
                    f"{nezha.total_seconds * 1000:.1f}",
                    cg_cell,
                    f"{nezha.abort_rate:.3f}",
                    "-" if cg.failed else f"{cg.abort_rate:.3f}",
                ]
            )
    return rows, failures


def test_fig9_cc_latency(benchmark, report_table):
    rows, failures = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = render_table(
        "Figure 9: CC + commitment latency (ms) vs block concurrency",
        ["skew", "omega", "nezha (ms)", "cg (ms)", "nezha aborts", "cg aborts"],
        rows,
        note="FAIL(budget) reproduces the paper's CG out-of-memory failures",
    )
    report_table("fig9_cc_latency", table)
    for skew in SKEWS:
        cells = [row for row in rows if row[0] == skew]
        chart = render_series(
            f"Figure 9 (skew={skew}): CC+commit latency (ms) vs omega",
            [row[1] for row in cells],
            {
                "nezha": [float(row[2]) for row in cells],
                "cg": [
                    None if row[3] == "FAIL(budget)" else float(row[3].replace(",", ""))
                    for row in cells
                ],
            },
            y_label="ms (cg gaps = FAIL)",
        )
        report_table(f"fig9_chart_skew{skew}", chart)
    print_table("Figure 9 failures (CG)", ["skew", "omega"], failures or [["-", "-"]])

    nezha_ms = [float(r[2]) for r in rows]
    # Nezha stays fast everywhere (paper: < 100 ms at full scale).
    assert max(nezha_ms) < 1_000
    # CG is slower than Nezha wherever batches are non-trivial (the paper
    # also shows a negligible gap at small omega).
    for row in rows:
        if row[3] != "FAIL(budget)" and float(row[1]) >= 8:
            assert float(row[3].replace(",", "")) > float(row[2])
    # High contention kills CG somewhere (the paper's OOM region).
    assert failures, "expected CG to blow its cycle budget under high skew"


def test_fig9_nezha_flat_in_skew(benchmark):
    """Nezha's latency moves little as skew rises (paper's observation)."""

    def measure():
        times = {}
        for skew in (0.2, 0.8):
            transactions = smallbank_epoch(4, scaled(BLOCK_SIZE), skew=skew, seed=3)
            runs = [
                run_scheme(make_scheme("nezha"), transactions) for _ in range(3)
            ]
            times[skew] = Summary.of([r.total_seconds for r in runs]).mean
        return times

    times = benchmark.pedantic(measure, rounds=1, iterations=1)
    assert times[0.8] < times[0.2] * 5
