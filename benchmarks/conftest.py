"""Shared benchmark fixtures.

Every benchmark registers its reproduction table through ``report_table``;
tables are printed in the terminal summary (immune to pytest's output
capture) and persisted under ``benchmarks/results/`` so EXPERIMENTS.md can
reference stable artifacts.  ``perf_smoke`` gates only print theirs: a
passing gate run must leave no tracked file changed.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"

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


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _tables:
        return
    terminalreporter.write_line("")
    terminalreporter.write_sep("=", "paper reproduction tables")
    for table in _tables:
        terminalreporter.write_line(table)
        terminalreporter.write_line("")
