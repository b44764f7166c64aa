"""`src/` is the product: what only tests reach, and how big the surface is.

Two checks over the ``repro`` package, both stdlib-only:

* **Reachability.**  Starting from the product's roots — the CLI
  (``repro.cli``, ``repro.__main__``), the node builder
  (``repro.net.build_node``, ``Cluster``), ``examples/``,
  ``benchmarks/e2e/`` and the Python that CI runs inline — a definition
  is reached when its name appears as a word anywhere in reached source,
  strings included (code templates name ``errors.OutOfGas`` in strings).
  A reached definition's own source is then reached too, up to a fixed
  point.  Methods need their class reached; dunders and the
  ``visit_*`` hooks ``ast.NodeVisitor`` dispatches by name count as
  reached with their class.  A package's re-export
  surface (imports, ``__all__``, a lazy ``_EXPORTS`` table) is not a
  use.  Every function, class or method left over is reached only from
  tests: it must be deleted, moved into ``tests/``, or listed in the
  baseline's allowlist with the open ROADMAP item that decides it.
* **Surface ratchet.**  The baseline pins the ``src/`` line count, each
  package's ``__all__`` size, the field counts of the four config
  dataclasses and the CLI's options per command.  A count above its pin
  fails; so does one below it, until the pin is lowered to match.

``python -m tests.test_surface`` (from the repository root, with ``src``
on ``PYTHONPATH``) prints the ratchet table and the allowlist size.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import functools
import importlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
BASELINE = Path(__file__).with_name("surface.json")

ROOT_MODULES = ("src/repro/cli.py", "src/repro/__main__.py")
ROOT_DEFINITIONS = ("src/repro/net/spec.py::build_node", "src/repro/net/cluster.py::Cluster")
ROOT_TREES = ("examples", "benchmarks/e2e")
CI_WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"
# Names a package re-exports or looks up lazily; listing a name there is not a use.
REEXPORTS = frozenset({"__all__", "_EXPORTS"})
# Methods called by name from outside the source: dunders, ast.NodeVisitor hooks.
IMPLICIT = re.compile(r"__\w+__|visit_\w+")
WORD = re.compile(r"[A-Za-z_]\w*")
INLINE_PYTHON = re.compile(r"""python3? -c (?:"([^"]*)"|'([^']*)')""")

CONFIGS = {
    "PipelineConfig": "repro.node.pipeline",
    "NezhaConfig": "repro.core.scheduler",
    "NodeSpec": "repro.net.spec",
    "ClusterConfig": "repro.net.cluster",
}
# An allowlist entry names the open ROADMAP item that decides its fate.
ALLOW_REASON = re.compile(r"item (\d+)(\([a-z0-9]+\))?: \S.*")


@dataclass
class Unit:
    """One piece of ``src/`` source: a definition, an assignment or a module body."""

    key: str
    names: frozenset[str]
    text: str
    checked: bool
    parent: str | None = None
    members: list[str] = field(default_factory=list)


def _relative(path: Path) -> str:
    return path.relative_to(ROOT).as_posix()


@functools.cache
def _parsed(path: Path) -> tuple[str, ast.Module]:
    source = path.read_text()
    return source, ast.parse(source)


def _first_line(node: ast.AST) -> int:
    return min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])


def _docstring(body: list[ast.stmt]) -> list[ast.stmt]:
    """The docstring statement of ``body``, if any: prose, not a use."""
    first = body[0] if body else None
    if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
        return [first] if isinstance(first.value.value, str) else []
    return []


def _segment(lines: list[str], node: ast.AST, holes: list[ast.AST] = ()) -> str:
    """Source lines of ``node`` (decorators included), minus those of ``holes``
    and of its own docstring."""
    holes = [*holes, *_docstring(getattr(node, "body", []))]
    skip = {
        line for hole in holes for line in range(_first_line(hole), hole.end_lineno + 1)
    }
    first = _first_line(node)
    return "\n".join(
        lines[line - 1] for line in range(first, node.end_lineno + 1) if line not in skip
    )


def _names_without_use(node: ast.stmt) -> bool:
    """Imports (``TYPE_CHECKING`` ones too) and re-export tables."""
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return True
    if isinstance(node, ast.If) and isinstance(node.test, ast.Name):
        return node.test.id == "TYPE_CHECKING"
    targets = _assigned_names(node)
    return bool(targets) and targets <= REEXPORTS


def _assigned_names(node: ast.stmt) -> frozenset[str]:
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign) and node.value is not None:
        targets = [node.target]
    else:
        return frozenset()
    return frozenset(
        name.id for target in targets for name in ast.walk(target) if isinstance(name, ast.Name)
    )


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def collect_units() -> dict[str, Unit]:
    """Every definition, module-level assignment and module body under ``src/repro``."""
    units: dict[str, Unit] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = _relative(path)
        source, tree = _parsed(path)
        lines = source.splitlines()
        body = Unit(module, frozenset(), "", checked=False)
        units[module] = body
        loose: list[str] = []
        for node in tree.body[len(_docstring(tree.body)):]:
            if isinstance(node, DEFINITIONS):
                key = f"{module}::{node.name}"
                members = []
                if isinstance(node, ast.ClassDef):
                    members = [child for child in node.body if isinstance(child, DEFINITIONS)]
                unit = Unit(key, frozenset({node.name}), _segment(lines, node, members), True)
                units[key] = unit
                body.members.append(key)
                for member in members:
                    member_key = f"{key}.{member.name}"
                    units[member_key] = Unit(
                        member_key,
                        frozenset({member.name}),
                        _segment(lines, member),
                        checked=True,
                        parent=key,
                    )
                    unit.members.append(member_key)
            elif _names_without_use(node):
                continue
            elif names := _assigned_names(node):
                key = f"{module}::{'/'.join(sorted(names))}"
                units[key] = Unit(key, names, _segment(lines, node), checked=False)
                body.members.append(key)
            else:
                loose.append(_segment(lines, node))
        body.text = "\n".join(loose)
    return units


def root_texts() -> list[str]:
    """Source outside ``src/`` that the product runs: examples, e2e benchmark, CI."""
    texts = [
        path.read_text()
        for tree in ROOT_TREES
        for path in sorted((ROOT / tree).rglob("*.py"))
    ]
    texts += [
        double or single for double, single in INLINE_PYTHON.findall(CI_WORKFLOW.read_text())
    ]
    return texts


def reached_units(units: dict[str, Unit]) -> set[str]:
    """Keys of every unit reachable from the roots (conservative: by word)."""
    words: set[str] = set()
    reached: set[str] = set()
    frontier: list[str] = []

    def reach(key: str) -> None:
        if key not in reached:
            reached.add(key)
            frontier.append(key)

    for text in root_texts():
        words.update(WORD.findall(text))
    for module in ROOT_MODULES:
        reach(module)
        for key in units[module].members:
            reach(key)
            for member in units[key].members:
                reach(member)
    for key in ROOT_DEFINITIONS:
        reach(key)

    while True:
        while frontier:
            unit = units[frontier.pop()]
            words.update(WORD.findall(unit.text))
            module = unit.key.split("::")[0]
            reach(module)
            # Importing a module runs its package's ``__init__``.
            package = module.rsplit("/", 1)[0] + "/__init__.py"
            if package in units:
                reach(package)
        grew = False
        for unit in units.values():
            if unit.key in reached or not unit.names:
                continue
            named = bool(unit.names & words)
            implicit = unit.checked and bool(IMPLICIT.fullmatch(next(iter(unit.names))))
            owner = unit.parent or unit.key.split("::")[0]
            if unit.parent is None:
                hit = named or (implicit and owner in reached)
            else:
                hit = owner in reached and (named or implicit)
            if hit:
                reach(unit.key)
                grew = True
        if not grew:
            return reached


def unreached(units: dict[str, Unit], reached: set[str]) -> list[str]:
    """Functions, classes and methods under ``src/`` that no root reaches."""
    return sorted(key for key, unit in units.items() if unit.checked and key not in reached)


@functools.cache
def analysis() -> tuple[dict[str, Unit], frozenset[str]]:
    units = collect_units()
    return units, frozenset(reached_units(units))


# ------------------------------------------------------------------ ratchet


def _leaf_commands(parser: argparse.ArgumentParser, path: str = "") -> dict[str, int]:
    """Options (flags, not positionals) of every leaf CLI command."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            out: dict[str, int] = {}
            for name, child in action.choices.items():
                out.update(_leaf_commands(child, f"{path} {name}".strip()))
            return out
    return {
        path: sum(
            1
            for action in parser._actions
            if action.option_strings and not isinstance(action, argparse._HelpAction)
        )
    }


@functools.cache
def measure() -> dict[str, dict[str, int]]:
    """The surface, as the baseline pins it."""
    from repro.cli import build_parser

    files = sorted(PACKAGE.rglob("*.py"))
    packages = sorted(
        ".".join(path.parent.relative_to(SRC).parts) for path in PACKAGE.rglob("__init__.py")
    )
    return {
        "src_lines": {"src/**/*.py": sum(_parsed(path)[0].count("\n") for path in files)},
        "all": {
            package: len(getattr(importlib.import_module(package), "__all__", ()))
            for package in packages
        },
        "config_fields": {
            name: len(dataclasses.fields(getattr(importlib.import_module(module), name)))
            for name, module in CONFIGS.items()
        },
        "cli_options": _leaf_commands(build_parser()),
    }


def baseline() -> dict:
    return json.loads(BASELINE.read_text())


def open_roadmap_items() -> set[int]:
    """Item numbers under ROADMAP.md's "Open items" that are not retired."""
    text = (ROOT / "ROADMAP.md").read_text()
    section = text.split("\n## Open items", 1)[1].split("\n## ", 1)[0]
    return {int(number) for number in re.findall(r"^(\d+)\. \*\*", section, re.M)}


# -------------------------------------------------------------------- tests


def test_every_test_only_definition_is_allowlisted():
    units, reached = analysis()
    allowlist = baseline()["allowlist"]
    unlisted = [
        key
        for key in unreached(units, reached)
        if key not in allowlist and units[key].parent not in allowlist
    ]
    assert not unlisted, (
        "reached only from tests: delete, move into tests/, or allowlist "
        f"with the ROADMAP item that decides it: {unlisted}"
    )


def test_allowlist_entries_exist_and_are_unreached():
    units, reached = analysis()
    stale = [key for key in baseline()["allowlist"] if key not in units or key in reached]
    assert not stale, f"allowlist entries now reached or gone; remove them: {stale}"


def test_allowlist_entries_name_an_open_roadmap_item():
    open_items = open_roadmap_items()
    assert 24 in open_items
    for key, reason in baseline()["allowlist"].items():
        match = ALLOW_REASON.fullmatch(reason)
        assert match, f"{key}: reason must read 'item N: why', got {reason!r}"
        assert int(match.group(1)) in open_items, f"{key}: item {match.group(1)} is not open"


def test_roots_reach_the_epoch_path():
    units, reached = analysis()
    for key in (
        "src/repro/core/scheduler.py::NezhaScheduler.schedule",
        "src/repro/core/acg.py::build_dense_acg",
        "src/repro/vm/compiler.py::_Emitter",
        "src/repro/errors.py::OutOfGas",
        "src/repro/analysis/static/lint.py::_Linter.visit_Call",
    ):
        assert key in units and key in reached, key


@pytest.mark.parametrize("metric", ["src_lines", "all", "config_fields", "cli_options"])
def test_surface_ratchet(metric):
    pinned = baseline()["ratchet"][metric]
    current = measure()[metric]
    raised = {k: (pinned.get(k), v) for k, v in current.items() if k not in pinned or v > pinned[k]}
    assert not raised, (
        f"{metric} rose above its pin (pinned, now): {raised}; lower another count "
        "or raise the pin in tests/surface.json and say why in CHANGES.md"
    )
    assert current == pinned, (
        f"{metric} fell: lower its pin in tests/surface.json to {current}"
    )


def _imports(path: Path) -> set[str]:
    modules: set[str] = set()
    for node in ast.walk(_parsed(path)[1]):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules.add(node.module)
    return modules


def test_only_the_cli_imports_the_benchmark_harness():
    importers = sorted(
        _relative(path)
        for path in PACKAGE.rglob("*.py")
        if PACKAGE / "bench" not in path.parents
        and any(name == "repro.bench" or name.startswith("repro.bench.") for name in _imports(path))
    )
    assert importers == ["src/repro/cli.py"]


def test_scheme_table_is_defined_once():
    definitions = [
        _relative(path)
        for path in PACKAGE.rglob("*.py")
        for node in _parsed(path)[1].body
        if "SCHEMES" in _assigned_names(node)
    ]
    assert definitions == ["src/repro/node/pipeline.py"]


def report() -> str:
    """The ratchet table (pin, now) and the allowlist size."""
    pinned = baseline()
    current = measure()
    lines = [f"{'metric':<34} {'pinned':>7} {'now':>7}"]
    for metric, values in current.items():
        for name in sorted(values.keys() | pinned["ratchet"][metric].keys()):
            lines.append(
                f"{metric + ':' + name:<34} {pinned['ratchet'][metric].get(name, '-'):>7} "
                f"{values.get(name, '-'):>7}"
            )
        pinned_total = sum(pinned["ratchet"][metric].values())
        lines.append(f"{metric + ' total':<34} {pinned_total:>7} {sum(values.values()):>7}")
    units, reached = analysis()
    lines.append(
        f"allowlist: {len(pinned['allowlist'])} entries; "
        f"reached only from tests: {len(unreached(units, reached))} definitions"
    )
    return "\n".join(lines)


if __name__ == "__main__":
    print(report())
