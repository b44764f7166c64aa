"""Every benchmark path a document names resolves.

Scans the inline code and fenced blocks of the living documents for
``benchmarks/...`` paths (globs allowed) and bare ``bench_*.py`` names.
A path resolves if it matches a file or directory in the checkout, or
falls under a run output ``.gitignore`` declares (such as the
``perf_smoke`` payloads).  EXPERIMENTS.md and CHANGES.md are history and
are not scanned.
"""

from __future__ import annotations

import fnmatch
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOCUMENTS = [
    ROOT / "README.md",
    ROOT / "DESIGN.md",
    *sorted((ROOT / "docs").glob("*.md")),
    ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
]
CODE = re.compile(r"```.*?```|`[^`]+`", re.S)
REFERENCE = re.compile(r"(?<![\w/.-])benchmarks/[\w./*-]*|(?<![\w/.*-])bench_[\w*]*\.py")


def _references(document: Path) -> list[str]:
    return [
        reference.rstrip(".")
        for code in CODE.findall(document.read_text())
        for reference in REFERENCE.findall(code)
    ]


def _ignored_outputs() -> list[str]:
    lines = (ROOT / ".gitignore").read_text().splitlines()
    return [line for line in lines if line.startswith("benchmarks/")]


def _resolves(reference: str) -> bool:
    pattern = reference if "/" in reference else f"benchmarks/**/{reference}"
    if any(ROOT.glob(pattern)):
        return True
    return any(
        reference.startswith(entry) if entry.endswith("/") else fnmatch.fnmatch(reference, entry)
        for entry in _ignored_outputs()
    )


def test_documents_name_benchmarks():
    assert sum(len(_references(document)) for document in DOCUMENTS) >= 20


@pytest.mark.parametrize("document", DOCUMENTS, ids=lambda path: path.name)
def test_benchmark_references_resolve(document):
    missing = [ref for ref in _references(document) if not _resolves(ref)]
    assert not missing, f"{document.relative_to(ROOT)} names missing benchmark paths: {missing}"
