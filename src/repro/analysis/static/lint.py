"""Determinism/concurrency linter for consensus-critical Python.

Every replica must derive bit-identical state roots from the same DAG,
so the Python that builds blocks, orders transactions, and commits state
(``src/repro/core``, ``dag``, ``state``, ``node``) must be
deterministic.  This AST pass flags the failure modes that have
actually bitten DAG-ledger reproductions:

* ``ND101`` — iterating an *unordered* ``set``/``frozenset`` into
  ordered output (hashes, lists, joins).  Python string hashing is
  randomized per process, so set order differs between replicas.
* ``ND102`` — wall-clock reads (``time.time``, ``datetime.now``) in a
  consensus path.  (Monotonic clocks like ``time.perf_counter`` are
  allowed: the repo uses them for phase metrics that never feed
  committed state.)
* ``ND103`` — the process-global ``random`` module (or an unseeded
  ``random.Random()``): different replicas draw different values.
* ``ND104`` — mutable default arguments: cross-call shared state that
  makes outcomes depend on call history.

The ``ND2xx`` family covers *thread safety*.  Starting from every
thread-spawn/pool-dispatch site in a module (``Thread(target=...)``,
``pool.submit(fn, ...)``, ``pool.map(fn, ...)``), the linter walks the
intra-module call graph (``self.method()`` within a class, bare calls at
module level, one level of lambda bodies) and inside the reachable
functions flags writes to shared mutable attributes that are not proven
lock-protected (lexically inside ``with <...lock>:``):

* ``ND201`` — augmented assignment (``self.x += 1``) to an attribute:
  a read-modify-write is never GIL-atomic, so concurrent increments
  lose updates.
* ``ND202`` — plain assignment to a ``self`` attribute that other
  (non-thread-reachable) methods of the same class also touch: the
  write is published to threads that never synchronize with it.
* ``ND203`` — mutating container call (``self.buf.append(...)``,
  ``self.cache[k] = v``) on a shared ``self`` attribute (warning
  severity: single container ops *are* GIL-atomic, but check-then-act
  sequences around them are not, so each site needs a human verdict).

Suppression: append ``# nd: ignore`` to silence every rule on a line,
or ``# nd: ignore[ND102]`` (comma-separated codes) to silence specific
rules; a ``# nd: ignore-file`` comment in the first five lines skips the
whole file.  Suppressions are expected to carry a justification comment.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

RULES: dict[str, str] = {
    "ND101": "unordered set iteration feeds ordered output",
    "ND102": "wall-clock read in a consensus path",
    "ND103": "process-global or unseeded random number generator",
    "ND104": "mutable default argument",
    "ND201": "unsynchronized read-modify-write in thread-reachable code",
    "ND202": "shared attribute written in thread-reachable code without a lock",
    "ND203": "shared container mutated in thread-reachable code without a lock",
}

RULE_SEVERITIES: dict[str, str] = {"ND203": "warning"}
"""Rules that do not gate CI; everything absent defaults to ``error``."""

DEFAULT_LINT_PACKAGES: tuple[str, ...] = (
    "core",
    "dag",
    "state",
    "node",
    "storage",
    "obs",
)
"""``repro`` sub-packages whose determinism/thread-safety is critical.

``storage`` and ``obs`` joined the default set with the ND2xx rules:
background LSM compaction and the tracer are exactly the shared-state
surfaces the thread-safety family exists to police."""

_IGNORE_LINE = re.compile(r"#\s*nd:\s*ignore(?:\[(?P<codes>[A-Z0-9,\s]+)\])?")
_IGNORE_FILE = re.compile(r"#\s*nd:\s*ignore-file")

_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.localtime",
        "time.ctime",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "date.today",
    }
)

_GLOBAL_RANDOM_FNS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "getrandbits",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "gauss",
        "normalvariate",
        "betavariate",
        "seed",
    }
)

_ORDERING_SINKS = frozenset({"tuple", "list", "iter", "enumerate", "next"})


@dataclass(frozen=True)
class LintFinding:
    """One determinism-lint diagnostic."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    @property
    def severity(self) -> str:
        return RULE_SEVERITIES.get(self.rule, "error")

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_json(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "severity": self.severity,
            "message": self.message,
        }


def _dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for nested Attribute/Name chains, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class _Linter(ast.NodeVisitor):
    def __init__(self, path: str, select: frozenset[str]) -> None:
        self.path = path
        self.select = select
        self.findings: list[LintFinding] = []
        self._random_imports: set[str] = set()

    # ------------------------------------------------------------- helpers

    def _flag(self, rule: str, node: ast.AST, message: str) -> None:
        if rule not in self.select:
            return
        self.findings.append(
            LintFinding(
                rule=rule,
                path=self.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                message=message,
            )
        )

    def _is_set_typed(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            callee = _dotted_name(node.func)
            if callee in ("set", "frozenset"):
                return True
            if isinstance(node.func, ast.Attribute) and node.func.attr in (
                "union",
                "intersection",
                "difference",
                "symmetric_difference",
            ):
                return self._is_set_typed(node.func.value)
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_set_typed(node.left) or self._is_set_typed(node.right)
        return False

    def _check_unordered_iteration(self, iterable: ast.AST, site: ast.AST) -> None:
        if self._is_set_typed(iterable):
            self._flag(
                "ND101",
                site,
                "iteration order of a set is not deterministic across "
                "processes; wrap the expression in sorted(...)",
            )

    # ------------------------------------------------------------- imports

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random":
            for alias in node.names:
                if alias.name in _GLOBAL_RANDOM_FNS:
                    self._random_imports.add(alias.asname or alias.name)
        self.generic_visit(node)

    # ------------------------------------------------------- ND101 sinks

    def visit_For(self, node: ast.For) -> None:
        self._check_unordered_iteration(node.iter, node.iter)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_unordered_iteration(node.iter, node.iter)
        self.generic_visit(node)

    # ----------------------------------------------------------- functions

    def _visit_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        for default in [*node.args.defaults, *node.args.kw_defaults]:
            if default is None:
                continue
            if isinstance(default, (ast.List, ast.Dict, ast.Set)):
                self._flag(
                    "ND104",
                    default,
                    f"mutable default argument in {node.name}(); "
                    "default to None and allocate inside the function",
                )
            elif isinstance(default, ast.Call) and _dotted_name(default.func) in (
                "list",
                "dict",
                "set",
                "bytearray",
                "collections.defaultdict",
                "defaultdict",
            ):
                self._flag(
                    "ND104",
                    default,
                    f"mutable default argument in {node.name}(); "
                    "default to None and allocate inside the function",
                )
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    # ---------------------------------------------------------- call sites

    def visit_Call(self, node: ast.Call) -> None:
        callee = _dotted_name(node.func)

        # ND101: set-typed expression materialized into ordered output.
        if callee in _ORDERING_SINKS and node.args:
            self._check_unordered_iteration(node.args[0], node)
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "join"
            and node.args
        ):
            self._check_unordered_iteration(node.args[0], node)

        # ND102: wall-clock reads.
        if callee is not None:
            suffix = callee.split(".", 1)[-1] if "." in callee else callee
            if callee in _WALL_CLOCK_CALLS or suffix in _WALL_CLOCK_CALLS:
                self._flag(
                    "ND102",
                    node,
                    f"{callee}() is wall-clock and differs between replicas; "
                    "consensus paths must derive time from block metadata",
                )

        # ND103: the process-global RNG, or an unseeded Random().
        if callee is not None and "." in callee:
            head, _, tail = callee.partition(".")
            if head == "random" and tail in _GLOBAL_RANDOM_FNS:
                self._flag(
                    "ND103",
                    node,
                    f"{callee}() uses the process-global RNG; use an "
                    "explicitly seeded random.Random(seed) instance",
                )
            if head == "random" and tail == "Random" and not node.args:
                self._flag(
                    "ND103",
                    node,
                    "random.Random() without a seed draws from OS entropy; "
                    "pass an explicit seed",
                )
        elif callee in self._random_imports:
            self._flag(
                "ND103",
                node,
                f"{callee}() was imported from the random module and uses "
                "the process-global RNG; use a seeded random.Random(seed)",
            )

        self.generic_visit(node)


_THREAD_DISPATCH = frozenset({"submit", "map"})
_MUTATING_METHODS = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "setdefault",
        "update",
    }
)

_FuncKey = tuple[str | None, str]  # (class name or None, function name)


def _self_attr(node: ast.AST) -> str | None:
    """``x`` for ``self.x``, else ``None``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _is_lock_guard(node: ast.expr) -> bool:
    """True for ``with`` context expressions that name a lock."""
    target = node
    if isinstance(target, ast.Call):  # e.g. contextlib wrappers around a lock
        target = target.func
    dotted = _dotted_name(target)
    if dotted is None:
        return False
    return "lock" in dotted.rsplit(".", 1)[-1].lower()


class _ThreadAnalysis:
    """ND2xx: shared-attribute writes reachable from thread-spawn sites.

    Scope is one module: entry points are the callables handed to
    ``Thread(target=...)`` / ``pool.submit`` / ``pool.map`` (including
    callables named inside a dispatched lambda), closed over the
    intra-class ``self.method()`` / module-level call graph.  A write is
    "proven safe" only when lexically nested in a ``with`` block whose
    context expression names a lock; everything else in reachable code is
    flagged for a human verdict (suppress with ``# nd: ignore[ND2xx]``
    plus a justification).
    """

    def __init__(self, tree: ast.Module) -> None:
        self.module_funcs: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = {}
        self.classes: dict[str, dict[str, ast.FunctionDef | ast.AsyncFunctionDef]] = {}
        self.attr_touchers: dict[str, dict[str, set[str]]] = {}
        self.entries: list[_FuncKey] = []
        self.entry_lambdas: list[tuple[str | None, ast.Lambda]] = []
        self._index(tree)
        self._collect_entries(tree)
        self.reachable = self._close_over_calls()

    # -- indexing ----------------------------------------------------------

    def _index(self, tree: ast.Module) -> None:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.module_funcs[node.name] = node
            elif isinstance(node, ast.ClassDef):
                methods: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = {}
                touchers: dict[str, set[str]] = {}
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        methods[item.name] = item
                        for sub in ast.walk(item):
                            attr = _self_attr(sub)
                            if attr is not None:
                                touchers.setdefault(attr, set()).add(item.name)
                self.classes[node.name] = methods
                self.attr_touchers[node.name] = touchers

    def _resolve_callable(
        self, node: ast.expr, owner: str | None
    ) -> list[_FuncKey]:
        attr = _self_attr(node)
        if attr is not None and owner is not None and attr in self.classes.get(owner, {}):
            return [(owner, attr)]
        if isinstance(node, ast.Name) and node.id in self.module_funcs:
            return [(None, node.id)]
        if isinstance(node, ast.Lambda):
            resolved: list[_FuncKey] = []
            for sub in ast.walk(node.body):
                if isinstance(sub, ast.Call):
                    resolved.extend(self._resolve_callable(sub.func, owner))
            return resolved
        return []

    def _collect_entries(self, tree: ast.Module) -> None:
        def scan(body: Iterable[ast.AST], owner: str | None) -> None:
            for node in body:
                if isinstance(node, ast.ClassDef):
                    scan(node.body, node.name)
                    continue
                for sub in ast.walk(node):  # type: ignore[arg-type]
                    if not isinstance(sub, ast.Call):
                        continue
                    dispatched: ast.expr | None = None
                    if (
                        isinstance(sub.func, ast.Attribute)
                        and sub.func.attr in _THREAD_DISPATCH
                        and sub.args
                    ):
                        dispatched = sub.args[0]
                    else:
                        callee = _dotted_name(sub.func)
                        if callee is not None and callee.rsplit(".", 1)[-1] == "Thread":
                            for keyword in sub.keywords:
                                if keyword.arg == "target":
                                    dispatched = keyword.value
                    if dispatched is None:
                        continue
                    self.entries.extend(self._resolve_callable(dispatched, owner))
                    if isinstance(dispatched, ast.Lambda):
                        self.entry_lambdas.append((owner, dispatched))

        scan(tree.body, None)

    def _function(self, key: _FuncKey) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
        owner, name = key
        if owner is None:
            return self.module_funcs.get(name)
        return self.classes.get(owner, {}).get(name)

    def _close_over_calls(self) -> set[_FuncKey]:
        seen: set[_FuncKey] = set()
        work = list(self.entries)
        while work:
            key = work.pop()
            if key in seen:
                continue
            node = self._function(key)
            if node is None:
                continue
            seen.add(key)
            owner = key[0]
            for sub in ast.walk(node):
                if isinstance(sub, ast.Call):
                    work.extend(self._resolve_callable(sub.func, owner))
        return seen

    # -- flagging ----------------------------------------------------------

    def findings(self, path: str, select: frozenset[str]) -> list[LintFinding]:
        out: list[LintFinding] = []

        def flag(rule: str, node: ast.AST, message: str) -> None:
            if rule in select:
                out.append(
                    LintFinding(
                        rule=rule,
                        path=path,
                        line=getattr(node, "lineno", 1),
                        col=getattr(node, "col_offset", 0),
                        message=message,
                    )
                )

        for key in sorted(self.reachable, key=lambda k: (k[0] or "", k[1])):
            node = self._function(key)
            if node is not None:
                self._scan_function(key, node, flag)
        for owner, lam in self.entry_lambdas:
            self._scan_mutating_calls(
                (owner, "<lambda>"), owner, ast.walk(lam.body), False, flag
            )
        return out

    def _shared(self, owner: str | None, attr: str, func: str) -> bool:
        """True when other non-thread-reachable methods touch the attribute."""
        if owner is None:
            return False
        touchers = self.attr_touchers.get(owner, {}).get(attr, set())
        reachable_names = {name for cls, name in self.reachable if cls == owner}
        return bool(touchers - reachable_names - {"__init__"})

    def _scan_function(
        self,
        key: _FuncKey,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        flag: "Callable[[str, ast.AST, str], None]",
    ) -> None:
        owner, name = key
        label = f"{owner}.{name}" if owner else name

        def scan(stmts: Iterable[ast.stmt], locked: bool) -> None:
            for stmt in stmts:
                if isinstance(stmt, (ast.With, ast.AsyncWith)):
                    inner = locked or any(
                        _is_lock_guard(item.context_expr) for item in stmt.items
                    )
                    scan(stmt.body, inner)
                    continue
                if not locked:
                    self._flag_stmt(stmt, owner, name, label, flag)
                for field_name in ("body", "orelse", "finalbody"):
                    nested = getattr(stmt, field_name, None)
                    if isinstance(nested, list):
                        scan([s for s in nested if isinstance(s, ast.stmt)], locked)
                for handler in getattr(stmt, "handlers", []):
                    scan(handler.body, locked)

        scan(func.body, False)

    def _flag_stmt(
        self,
        stmt: ast.stmt,
        owner: str | None,
        func_name: str,
        label: str,
        flag: "Callable[[str, ast.AST, str], None]",
    ) -> None:
        if isinstance(stmt, ast.AugAssign) and isinstance(stmt.target, ast.Attribute):
            target = _dotted_name(stmt.target) or stmt.target.attr
            flag(
                "ND201",
                stmt,
                f"read-modify-write of {target} in thread-reachable "
                f"{label}(); += is not atomic, hold a lock or use a "
                "dedicated synchronized counter",
            )
            return
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                attr = _self_attr(target)
                if attr is not None and self._shared(owner, attr, func_name):
                    flag(
                        "ND202",
                        stmt,
                        f"self.{attr} is written in thread-reachable {label}() "
                        "and touched by other methods; publish under a lock",
                    )
                elif isinstance(target, ast.Subscript):
                    base = _self_attr(target.value)
                    if base is not None and self._shared(owner, base, func_name):
                        flag(
                            "ND203",
                            stmt,
                            f"self.{base}[...] is mutated in thread-reachable "
                            f"{label}(); verify the surrounding check-then-act "
                            "is safe or hold a lock",
                        )
        # Mutating container calls: scan simple statements whole, compound
        # statements only through their header expressions (their nested
        # bodies are scanned by the caller with their own lock state).
        scopes: list[ast.AST] = []
        if isinstance(stmt, (ast.If, ast.While)):
            scopes.append(stmt.test)
        elif isinstance(stmt, ast.For):
            scopes.append(stmt.iter)
        elif not hasattr(stmt, "body"):
            scopes.append(stmt)
        for scope in scopes:
            self._scan_mutating_calls(
                (owner, func_name), owner, ast.walk(scope), True, flag, label
            )

    def _scan_mutating_calls(
        self,
        key: _FuncKey,
        owner: str | None,
        nodes: Iterable[ast.AST],
        stmt_scope: bool,
        flag: "Callable[[str, ast.AST, str], None]",
        label: str | None = None,
    ) -> None:
        label = label or (f"{owner}.{key[1]}" if owner else key[1])
        for sub in nodes:
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr in _MUTATING_METHODS
            ):
                base = _self_attr(sub.func.value)
                if base is not None and self._shared(owner, base, key[1]):
                    flag(
                        "ND203",
                        sub,
                        f"self.{base}.{sub.func.attr}(...) in thread-reachable "
                        f"{label}(); verify the surrounding check-then-act is "
                        "safe or hold a lock",
                    )


def _suppressed_rules(line_text: str) -> frozenset[str] | None:
    """Rules suppressed on a line: empty set = all, None = none."""
    match = _IGNORE_LINE.search(line_text)
    if match is None:
        return None
    codes = match.group("codes")
    if codes is None:
        return frozenset()
    return frozenset(code.strip() for code in codes.split(",") if code.strip())


def lint_source(
    source: str,
    path: str = "<string>",
    *,
    select: Iterable[str] | None = None,
) -> list[LintFinding]:
    """Lint one module's source text, honouring suppression comments."""
    selected = frozenset(RULES) if select is None else frozenset(select)
    lines = source.splitlines()
    for early in lines[:5]:
        if _IGNORE_FILE.search(early):
            return []
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            LintFinding(
                rule="ND100",
                path=path,
                line=exc.lineno or 1,
                col=exc.offset or 0,
                message=f"file does not parse: {exc.msg}",
            )
        ]
    linter = _Linter(path, selected)
    linter.visit(tree)
    linter.findings.extend(_ThreadAnalysis(tree).findings(path, selected))
    kept: list[LintFinding] = []
    for finding in sorted(linter.findings, key=lambda f: (f.line, f.col, f.rule)):
        line_text = lines[finding.line - 1] if finding.line - 1 < len(lines) else ""
        suppressed = _suppressed_rules(line_text)
        if suppressed is not None and (not suppressed or finding.rule in suppressed):
            continue
        kept.append(finding)
    return kept


def lint_paths(
    paths: Sequence[Path | str],
    *,
    select: Iterable[str] | None = None,
) -> list[LintFinding]:
    """Lint files and directory trees (``*.py``, deterministic order)."""
    findings: list[LintFinding] = []
    for entry in paths:
        root = Path(entry)
        if root.is_dir():
            files = sorted(root.rglob("*.py"))
        else:
            files = [root]
        for file in files:
            findings.extend(
                lint_source(
                    file.read_text(encoding="utf-8"), str(file), select=select
                )
            )
    return findings


def default_lint_paths(repo_src: Path) -> list[Path]:
    """The consensus-critical packages under a ``src/repro`` root."""
    return [repo_src / package for package in DEFAULT_LINT_PACKAGES]
