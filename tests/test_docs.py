"""Every benchmark path, ``repro`` name and ``file.py::name`` a document names resolves.

Scans the inline code and fenced blocks of the living documents for
``benchmarks/...`` paths (globs allowed) and bare ``bench_*.py`` names.
A path resolves if it matches a file or directory in the checkout, or
falls under a run output ``.gitignore`` declares (such as the
``perf_smoke`` payloads).  Inline code naming a dotted ``repro.…`` object
must import and resolve attribute by attribute, and inline
``path.py::name`` must name a ``def``, ``class`` or assignment in that
file.  EXPERIMENTS.md and CHANGES.md are history and are not scanned.
"""

from __future__ import annotations

import ast
import fnmatch
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
REFERENCE_DOCUMENTS = [
    ROOT / "README.md",
    ROOT / "DESIGN.md",
    *sorted((ROOT / "docs").glob("*.md")),
]
DOCUMENTS = [*REFERENCE_DOCUMENTS, ROOT / ".claude" / "skills" / "verify" / "SKILL.md"]
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


# Inline code only: a dotted ``repro`` name (a call suffix is allowed) or ``path.py::name``.
INLINE = re.compile(r"(?<!`)`([^`\n]+)`(?!`)")
DOTTED = re.compile(r"(repro(?:\.\w+)+)(?:\(.*\))?")
DEFINED = re.compile(r"([\w./-]+\.py)::(\w+)")


def _inline(document: Path, pattern: re.Pattern[str]) -> list[re.Match[str]]:
    return [
        match
        for code in INLINE.findall(document.read_text())
        if (match := pattern.fullmatch(code.strip()))
    ]


def _imports(dotted: str) -> bool:
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        try:
            for attribute in parts[split:]:
                target = getattr(target, attribute)
        except AttributeError:
            return False
        return True
    return False


def _defines(path: str, name: str) -> bool:
    file = ROOT / path
    if not file.is_file():
        return False
    for node in ast.parse(file.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name == name:
                return True
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(target, ast.Name) and target.id == name for target in targets):
                return True
    return False


def test_documents_name_repro_objects():
    assert sum(len(_inline(document, DOTTED)) for document in REFERENCE_DOCUMENTS) >= 60
    assert sum(len(_inline(document, DEFINED)) for document in REFERENCE_DOCUMENTS) >= 8


@pytest.mark.parametrize("document", REFERENCE_DOCUMENTS, ids=lambda path: path.name)
def test_repro_names_import(document):
    missing = [m.group(0) for m in _inline(document, DOTTED) if not _imports(m.group(1))]
    assert not missing, f"{document.relative_to(ROOT)} names missing objects: {missing}"


@pytest.mark.parametrize("document", REFERENCE_DOCUMENTS, ids=lambda path: path.name)
def test_file_definitions_exist(document):
    missing = [m.group(0) for m in _inline(document, DEFINED) if not _defines(*m.groups())]
    assert not missing, f"{document.relative_to(ROOT)} names missing definitions: {missing}"
