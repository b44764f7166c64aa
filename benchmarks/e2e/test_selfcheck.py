"""Self-check of the benchmark's plumbing (not a measurement).

Run explicitly — ``PYTHONPATH=src python -m pytest benchmarks/e2e`` — it is
outside the tier-1 ``testpaths`` and takes about a minute and a half: two
``--smoke`` runs of every workload, every check on.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import run
import stats

HERE = Path(__file__).resolve().parent
CONTRACT = run.load_contract()


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory) -> list[dict]:
    runs = []
    for label in ("first", "second"):
        out = tmp_path_factory.mktemp("e2e") / f"{label}.json"
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out)],
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
        runs.append(json.loads(out.read_text()))
    return runs


def test_smoke_reports_every_declared_workload_and_metric(smoke_runs):
    run = smoke_runs[0]
    assert run["correct"]
    assert set(run["workloads"]) == {w["name"] for w in CONTRACT["workloads"]}
    for result in run["workloads"].values():
        assert set(result["metrics"]) == {m["name"] for m in CONTRACT["end_to_end"]}
        assert set(result["per_layer"]) == {m["name"] for m in CONTRACT["per_layer"]}
        assert result["failed_checks"] == []
        assert result["ops_attempted"] >= result["ops_failed"] > 0
        assert result["ops_unaccounted"] == 0


def test_names_are_plain():
    names = [w["name"] for w in CONTRACT["workloads"]]
    names += [m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name


def test_counts_repeat_exactly(smoke_runs):
    first, second = smoke_runs
    exact = [m["name"] for m in CONTRACT["per_layer"] if m["unit"] in run.EXACT_UNITS]
    assert exact
    for name, a in first["workloads"].items():
        b = second["workloads"][name]
        for key in ("ops_attempted", "ops_failed", "final_root", "fingerprint_sha256"):
            assert a[key] == b[key], (name, key)
        assert a["metrics"]["abort_rate"] == b["metrics"]["abort_rate"]
        for metric in exact:
            assert a["per_layer"][metric] == b["per_layer"][metric], (name, metric)


def test_tail_rule_needs_ten_samples_beyond():
    assert stats.tail_percentile(19) is None
    assert stats.tail_percentile(20) == 50.0
    assert stats.tail_percentile(39) == 50.0
    assert stats.tail_percentile(40) == 75.0
    assert stats.tail_percentile(99) == 75.0
    assert stats.tail_percentile(100) == 90.0
    assert stats.tail_percentile(200) == 95.0
    assert stats.tail_percentile(10_000) == 99.9


def test_floors_take_each_epochs_fastest_repeat():
    assert stats.floors([[3.0, 1.0, 5.0], [2.0, 4.0, 6.0]]) == [2.0, 1.0, 5.0]
    with pytest.raises(ValueError):
        stats.floors([[1.0, 2.0], [1.0]])
    assert stats.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 75.0) == 4.0
