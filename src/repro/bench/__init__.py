"""Benchmark harness: runners, sweeps, and table rendering."""

from repro.bench.harness import (
    SchemeRun,
    bench_scale,
    repeat_runs,
    run_scheme,
    scaled,
    smallbank_epoch,
)
from repro.bench.tables import print_table, render_series, render_table

__all__ = [
    "SchemeRun",
    "bench_scale",
    "print_table",
    "render_series",
    "render_table",
    "repeat_runs",
    "run_scheme",
    "scaled",
    "smallbank_epoch",
]
