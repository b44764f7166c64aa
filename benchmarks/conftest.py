"""Shared benchmark fixtures.

Every benchmark registers its reproduction table through ``report_table``;
tables are printed in the terminal summary (immune to pytest's output
capture) and persisted under ``benchmarks/results/`` so EXPERIMENTS.md can
reference stable artifacts.  ``perf_smoke`` gates only print theirs and
hand their measured payload to ``record_smoke``, which writes it to the
gitignored ``benchmarks/results/smoke/<gate>.json``: a gate run leaves
this run's numbers behind and no tracked file changed.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

BENCHMARKS_DIR = Path(__file__).parent
RESULTS_DIR = BENCHMARKS_DIR / "results"
SMOKE_DIR = RESULTS_DIR / "smoke"

# Benchmarks measure their own checkout's program, with or without
# PYTHONPATH (as benchmarks/e2e/run.py does for its replays).
sys.path.insert(0, str(BENCHMARKS_DIR.parent / "src"))

_tables: list[str] = []


@pytest.fixture
def report_table(request):
    """Register a rendered table for terminal summary and persistence."""
    persist = request.node.get_closest_marker("perf_smoke") is None

    def _record(name: str, text: str) -> None:
        _tables.append(text)
        if not persist:
            return
        RESULTS_DIR.mkdir(exist_ok=True)
        safe = re.sub(r"[^A-Za-z0-9_.-]", "_", name)
        (RESULTS_DIR / f"{safe}.txt").write_text(text + "\n")

    return _record


@pytest.fixture
def record_smoke():
    """Write a ``perf_smoke`` gate's payload to ``results/smoke/<gate>.json``."""

    def _record(gate: str, payload: dict) -> None:
        SMOKE_DIR.mkdir(parents=True, exist_ok=True)
        (SMOKE_DIR / f"{gate}.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    return _record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _tables:
        return
    terminalreporter.write_line("")
    terminalreporter.write_sep("=", "paper reproduction tables")
    for table in _tables:
        terminalreporter.write_line(table)
        terminalreporter.write_line("")
