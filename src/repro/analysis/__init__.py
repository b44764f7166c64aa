"""Analytical models and measurement helpers for the evaluation.

Re-exports are **lazy** (PEP 562): low-level modules (``obs.tracer``,
``state.statedb``, ``storage.lsm``) import ``repro.analysis.race`` for their
sanitizer hooks, and an eager ``__init__`` would drag the whole analysis
stack — and through ``conflicts`` the ``repro.workload`` package — into
every such import, creating a cycle.
"""

from typing import Any

_EXPORTS: dict[str, str] = {
    "ConflictMeasurement": "repro.analysis.conflicts",
    "conflicts_per_address": "repro.analysis.conflicts",
    "expected_distinct_addresses": "repro.analysis.conflicts",
    "measure_conflicts": "repro.analysis.conflicts",
    "pairwise_conflict_count": "repro.analysis.conflicts",
    "Summary": "repro.analysis.metrics",
    "percentile": "repro.analysis.metrics",
    "speedup": "repro.analysis.metrics",
    "CertFinding": "repro.analysis.certify",
    "EpochCertificate": "repro.analysis.certify",
    "certify_epoch": "repro.analysis.certify",
    "RaceDetector": "repro.analysis.race",
    "RaceFinding": "repro.analysis.race",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
