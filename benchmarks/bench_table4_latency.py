"""Table IV — transaction processing latency under a uniform workload.

Paper setting: skew = 0 (uniform), block size 200, block concurrency 2-12.
Three numbers per concurrency:

* Serial latency — executing and committing every transaction one by one
  with the EVM engine (paper: 4.7 s at omega=2 up to 36.6 s at omega=12);
* Nezha "(e)" — the concurrent speculative-execution phase;
* Nezha "(c)" — concurrency control plus commitment.

Execution latencies ("Serial" and "(e)") are *modelled* at the paper's
calibrated per-transaction EVM cost (our Python substrate executes
SmallBank far faster than their EVM stack — see repro.vm.costmodel);
the "(c)" column is measured for real on our Nezha implementation, since
concurrency control is the contribution under test.
"""

from __future__ import annotations

from repro.analysis import Summary
from repro.bench import (
    print_table,
    render_table,
    repeat_runs,
    scaled,
    smallbank_epoch,
)
from repro.vm.costmodel import ExecutionCostModel

CONCURRENCIES = (2, 4, 6, 8, 10, 12)
BLOCK_SIZE = 200
ROUNDS = 3
PAPER = {
    2: (4_700, 123.4, 22.1),
    4: (10_900, 246.4, 32.8),
    6: (17_200, 369.3, 44.9),
    8: (23_800, 511.7, 56.4),
    10: (30_000, 641.5, 71.6),
    12: (36_600, 743.4, 87.1),
}


def sweep():
    cost = ExecutionCostModel()
    block_size = scaled(BLOCK_SIZE)
    rows = []
    for omega in CONCURRENCIES:
        transactions = smallbank_epoch(omega, block_size, skew=0.0, seed=omega)
        count = len(transactions)
        serial_ms = cost.serial_batch_seconds(count) * 1000
        execute_ms = cost.concurrent_batch_seconds(count) * 1000
        runs = repeat_runs("nezha", transactions, rounds=ROUNDS)
        control_ms = Summary.of([run.total_seconds for run in runs]).mean * 1000
        paper_serial, paper_e, paper_c = PAPER[omega]
        rows.append(
            [
                omega,
                count,
                f"{serial_ms:,.0f}",
                f"{paper_serial:,}",
                f"{execute_ms:.1f}",
                paper_e,
                f"{control_ms:.1f}",
                paper_c,
            ]
        )
    return rows


def test_table4_latency(benchmark, report_table):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = render_table(
        "Table IV: processing latency, uniform workload (ms; serial and e in simulated seconds)",
        [
            "omega",
            "txns",
            "serial (model)",
            "serial (paper)",
            "nezha e (model)",
            "e (paper)",
            "nezha c (measured)",
            "c (paper)",
        ],
        rows,
        note="serial and (e) use the paper-calibrated EVM cost model; (c) is real",
    )
    report_table("table4_latency", table)
    print_table("Table IV", ["omega", "nezha c (ms)"], [[r[0], r[6]] for r in rows])
    # Shape assertions: serial latency dwarfs Nezha's, and (c) grows slowly.
    serial_by_omega = [float(r[2].replace(",", "")) for r in rows]
    control_by_omega = [float(r[6]) for r in rows]
    assert all(s > c * 10 for s, c in zip(serial_by_omega, control_by_omega))
    assert serial_by_omega[-1] > serial_by_omega[0] * 4  # linear in omega
