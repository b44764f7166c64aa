"""Static analysis: SVM bytecode verification and determinism linting.

Two engines with one goal — catch correctness hazards *before* they
reach the scheduler:

* the **bytecode verifier** (:mod:`verifier`) decodes SVM bytecode into
  a CFG, abstract-interprets it over a constant/symbolic stack lattice,
  proves stack and jump safety, bounds gas on acyclic paths, and derives
  the static over-approximate read/write key set whose containment of
  every runtime :class:`~repro.vm.logger.LoggedStorage` observation is
  Nezha's soundness obligation;
* the **determinism linter** (:mod:`lint`) walks consensus-critical
  Python ASTs for nondeterminism and thread-safety hazards.

See ``docs/static-analysis.md`` for the abstract domain, the soundness
claim, and the lint rule catalog.
"""

from repro.analysis.static.absdomain import (
    TOP,
    AbsVal,
    Arg,
    BinExpr,
    Caller,
    Const,
    Load,
    NotExpr,
    Top,
    evaluate,
)
from repro.analysis.static.absint import AbstractResult, Finding, interpret
from repro.analysis.static.cfg import CFG, BasicBlock, build_cfg, gas_bound
from repro.analysis.static.deltas import (
    EMPTY_CLASSIFICATION,
    DeltaClassification,
    DeltaSite,
    classify_bytecode,
    resolve_sites,
)
from repro.analysis.static.contracts import (
    ContainmentFailure,
    ShippedContract,
    SweepResult,
    run_containment_sweep,
    shipped_contracts,
    verify_shipped_contract,
)
from repro.analysis.static.lint import (
    DEFAULT_LINT_PACKAGES,
    RULES,
    LintFinding,
    default_lint_paths,
    lint_paths,
    lint_source,
)
from repro.analysis.static.verifier import (
    ContainmentResult,
    MethodReport,
    check_containment,
    verify_bytecode,
    verify_contract,
)

__all__ = [
    "AbsVal",
    "AbstractResult",
    "Arg",
    "BasicBlock",
    "BinExpr",
    "CFG",
    "Caller",
    "ContainmentFailure",
    "ContainmentResult",
    "Const",
    "DEFAULT_LINT_PACKAGES",
    "DeltaClassification",
    "DeltaSite",
    "EMPTY_CLASSIFICATION",
    "Finding",
    "LintFinding",
    "Load",
    "MethodReport",
    "NotExpr",
    "RULES",
    "ShippedContract",
    "SweepResult",
    "TOP",
    "Top",
    "build_cfg",
    "check_containment",
    "classify_bytecode",
    "default_lint_paths",
    "evaluate",
    "gas_bound",
    "interpret",
    "resolve_sites",
    "lint_paths",
    "lint_source",
    "run_containment_sweep",
    "shipped_contracts",
    "verify_bytecode",
    "verify_contract",
    "verify_shipped_contract",
]
