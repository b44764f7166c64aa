"""Baseline concurrency-control schemes the paper compares against."""

from repro.baselines.conflict_graph import (
    CGConfig,
    CGResult,
    CGScheduler,
    ConflictGraph,
    build_conflict_graph,
    remove_cycles,
    topological_order,
)
from repro.baselines.johnson import (
    DEFAULT_CYCLE_BUDGET,
    find_elementary_cycles,
)
from repro.baselines.occ import OCCScheduler
from repro.baselines.pcc import PCCScheduler
from repro.baselines.serial import SerialScheduler
from repro.baselines.tarjan import nontrivial_components, strongly_connected_components

__all__ = [
    "CGConfig",
    "CGResult",
    "CGScheduler",
    "ConflictGraph",
    "DEFAULT_CYCLE_BUDGET",
    "OCCScheduler",
    "PCCScheduler",
    "SerialScheduler",
    "build_conflict_graph",
    "find_elementary_cycles",
    "nontrivial_components",
    "remove_cycles",
    "strongly_connected_components",
    "topological_order",
]
