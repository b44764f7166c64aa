"""Unit tests for the benchmark harness and table renderer."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench import (
    bench_scale,
    render_table,
    repeat_runs,
    run_scheme,
    scaled,
    smallbank_epoch,
)
from repro.node import SCHEMES, make_scheme


class TestSchemeFactory:
    def test_all_registered_schemes_instantiate(self):
        for name in SCHEMES:
            scheme = make_scheme(name)
            assert hasattr(scheme, "schedule")

    def test_unknown_scheme_rejected(self):
        with pytest.raises(KeyError):
            make_scheme("warp-drive")

    def test_cg_cycle_budget_threaded(self):
        scheme = make_scheme("cg", cycle_budget=123)
        assert scheme.config.cycle_budget == 123


class TestRunScheme:
    def test_uniform_result_shape(self):
        transactions = smallbank_epoch(1, 20, skew=0.3, seed=1, account_count=100)
        for name in ("serial", "occ", "pcc", "cg", "nezha"):
            run = run_scheme(make_scheme(name), transactions)
            assert run.scheme == name
            assert run.total_seconds >= 0
            assert run.committed + run.schedule.aborted_count == len(transactions)

    def test_phase_seconds_for_nezha(self):
        transactions = smallbank_epoch(1, 20, skew=0.3, seed=1, account_count=100)
        run = run_scheme(make_scheme("nezha"), transactions)
        assert "rank_division" in run.phase_seconds

    def test_phase_seconds_for_occ(self):
        transactions = smallbank_epoch(1, 20, skew=0.3, seed=1, account_count=100)
        run = run_scheme(make_scheme("occ"), transactions)
        assert "validation" in run.phase_seconds

    def test_failed_cg_flagged(self):
        transactions = smallbank_epoch(2, 150, skew=1.1, seed=2, account_count=500)
        run = run_scheme(make_scheme("cg", cycle_budget=10), transactions)
        assert run.failed

    def test_repeat_runs_fresh_instances(self):
        transactions = smallbank_epoch(1, 15, skew=0.0, seed=3, account_count=100)
        runs = repeat_runs("nezha", transactions, rounds=3)
        assert len(runs) == 3
        assert len({r.schedule for r in runs}) == 1  # deterministic


class TestScale:
    def test_default_scale(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        assert bench_scale() == 1.0
        assert scaled(100) == 100

    def test_env_scale(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.5")
        assert scaled(100) == 50

    def test_minimum_one(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.05")
        assert scaled(3) == 1

    def test_garbage_env_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "lots")
        assert bench_scale() == 1.0


class TestEpochGeneration:
    def test_shape(self):
        transactions = smallbank_epoch(3, 25, skew=0.4, seed=5, account_count=200)
        assert len(transactions) == 75
        assert [t.txid for t in transactions] == sorted(t.txid for t in transactions)

    def test_seed_reproducible(self):
        a = smallbank_epoch(2, 10, skew=0.7, seed=9, account_count=100)
        b = smallbank_epoch(2, 10, skew=0.7, seed=9, account_count=100)
        assert [(t.function, t.args) for t in a] == [(t.function, t.args) for t in b]


class TestTableRenderer:
    def test_alignment_and_content(self):
        table = render_table(
            "demo", ["name", "value"], [["alpha", 1], ["b", 123456.0]], note="n"
        )
        lines = table.splitlines()
        assert lines[0] == "== demo =="
        assert "name" in lines[1]
        assert "alpha" in table
        assert "123,456" in table
        assert lines[-1] == "note: n"

    def test_float_formatting(self):
        table = render_table("t", ["v"], [[0.12345], [12.3], [0.0]])
        assert "0.1235" in table or "0.1234" in table
        assert "12.30" in table


class TestSeriesRenderer:
    def test_chart_structure(self):
        from repro.bench import render_series

        chart = render_series(
            "demo", [1, 2, 3], {"up": [1.0, 2.0, 3.0], "flat": [1.0, 1.0, 1.0]}
        )
        lines = chart.splitlines()
        assert lines[0] == "== demo =="
        assert "a = up" in chart
        assert "b = flat" in chart
        assert "3.0" in lines[1]  # peak label

    def test_none_values_skipped(self):
        from repro.bench import render_series

        chart = render_series("gaps", [1, 2], {"s": [5.0, None]})
        # Only one marker plotted.
        assert sum(line.count("a") for line in chart.splitlines()[1:-3]) >= 1

    def test_overlap_marker(self):
        from repro.bench import render_series

        chart = render_series("o", [1], {"x": [5.0], "y": [5.0]})
        assert "*" in chart

    def test_all_zero_series(self):
        from repro.bench import render_series

        chart = render_series("z", [1, 2], {"s": [0.0, 0.0]})
        assert "== z ==" in chart


class TestPerfSmokeGates:
    def test_collect_without_pythonpath(self):
        """``pytest benchmarks -m perf_smoke`` finds the program and its three gates."""
        env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
        done = subprocess.run(
            # addopts adds a -q, and -qq prints per-file counts instead of ids.
            [sys.executable, "-m", "pytest", "benchmarks", "--collect-only", "-q",
             "-o", "addopts=", "-m", "perf_smoke", "-p", "no:cacheprovider"],
            cwd=Path(__file__).resolve().parents[2],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert done.returncode == 0, done.stdout + done.stderr
        assert sorted(line for line in done.stdout.splitlines() if "::" in line) == [
            "benchmarks/bench_delta_cc.py::test_delta_cc_abort_drop",
            "benchmarks/bench_overhead.py::test_certify_overhead_under_ceiling",
            "benchmarks/bench_overhead.py::test_obs_overhead_under_ceiling",
        ]
