"""Figure 12 — effective system throughput of OHIE with each scheme.

Paper setting: 1 s expected block interval, block size 200, skew in
{0.2, 0.6}, block concurrency 2-12.  Effective throughput counts only
transactions that pass processing and persist state.  Findings:

* Serial is flat around 60 tps no matter the concurrency (EVM-bound);
* CG grows sub-linearly at skew 0.2 and collapses at skew 0.6 / omega 12
  when its concurrency-control latency blows up;
* Nezha grows almost linearly with block concurrency at both skews.

Execution costs are charged through the paper-calibrated cost model;
concurrency-control and commitment latencies are measured for real inside
the simulated cluster.  Default block size is 100 (REPRO_BENCH_SCALE=2
for paper scale); the CG collapse then already appears at omega >= 8.
"""

from __future__ import annotations

from repro.bench import render_series, render_table, scaled
from repro.net import Cluster, ClusterConfig, NodeSpec
from repro.vm.costmodel import ExecutionCostModel
from repro.workload import SmallBankConfig

SKEWS = (0.2, 0.6)
CONCURRENCIES = (2, 4, 8, 12)
BLOCK_SIZE = 100
EPOCHS = 2


def run_cell(scheme_name, omega, skew):
    cluster = Cluster(
        NodeSpec(
            scheme=scheme_name,
            chain_count=omega,
            workload=SmallBankConfig(skew=skew, seed=7),
        ),
        ClusterConfig(block_size=scaled(BLOCK_SIZE), cost_model=ExecutionCostModel()),
    )
    return cluster.run_epochs(EPOCHS)


def sweep():
    rows = []
    series: dict[tuple[str, float], list[float]] = {}
    for skew in SKEWS:
        for omega in CONCURRENCIES:
            cells = {}
            for scheme_name in ("serial", "cg", "nezha"):
                run = run_cell(scheme_name, omega, skew)
                cells[scheme_name] = run.effective_throughput
                series.setdefault((scheme_name, skew), []).append(
                    run.effective_throughput
                )
            rows.append(
                [
                    skew,
                    omega,
                    f"{cells['serial']:.1f}",
                    f"{cells['cg']:.1f}",
                    f"{cells['nezha']:.1f}",
                ]
            )
    return rows, series


def test_fig12_effective_throughput(benchmark, report_table):
    rows, series = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = render_table(
        "Figure 12: effective throughput vs block concurrency (tps, simulated seconds)",
        ["skew", "omega", "serial", "cg", "nezha"],
        rows,
        note="1 s block interval; execution charged at the paper-calibrated EVM rate",
    )
    report_table("fig12_throughput", table)
    for skew in SKEWS:
        chart = render_series(
            f"Figure 12 (skew={skew}): effective throughput vs omega (simulated seconds)",
            list(CONCURRENCIES),
            {
                name: [value for value in series[(name, skew)]]
                for name in ("serial", "cg", "nezha")
            },
            y_label="tps",
        )
        report_table(f"fig12_chart_skew{skew}", chart)

    for skew in SKEWS:
        serial = series[("serial", skew)]
        nezha = series[("nezha", skew)]
        # Serial stays flat: max/min within 40%.
        assert max(serial) < min(serial) * 1.4
        # Nezha scales with omega: highest concurrency >= 3x lowest.
        assert nezha[-1] > nezha[0] * 3
        # Nezha beats serial decisively at high concurrency.
        assert nezha[-1] > serial[-1] * 3
    # CG collapses (or fails outright) under skew 0.6 at high concurrency,
    # while Nezha keeps climbing.
    cg_skewed = series[("cg", 0.6)]
    nezha_skewed = series[("nezha", 0.6)]
    assert cg_skewed[-1] < nezha_skewed[-1] * 0.7
