"""Nezha concurrency control: ACG construction plus hierarchical sorting."""

from repro.core.acg import (
    ACG,
    DenseACG,
    build_dense_acg,
    dense_acg_from_transactions,
)
from repro.core.export import acg_to_dot, conflict_graph_to_dot, schedule_to_dot
from repro.core.incremental import IncrementalACG, dense_acg_equal
from repro.core.interner import InternedBatch, intern_batch
from repro.core.rank import RankPolicy, divide_ranks_dense
from repro.core.schedule import (
    CommitGroup,
    Schedule,
    SchemeResult,
    schedule_from_sequences,
    serial_schedule,
)
from repro.core.scheduler import NezhaConfig, NezhaResult, NezhaScheduler
from repro.core.sorting import INITIAL_SEQUENCE, DenseSortState, sort_transactions_dense
from repro.core.units import AddressRWList
from repro.core.validate import validate_sort_dense

__all__ = [
    "ACG",
    "AddressRWList",
    "CommitGroup",
    "DenseACG",
    "DenseSortState",
    "INITIAL_SEQUENCE",
    "IncrementalACG",
    "InternedBatch",
    "NezhaConfig",
    "NezhaResult",
    "NezhaScheduler",
    "RankPolicy",
    "Schedule",
    "SchemeResult",
    "acg_to_dot",
    "build_dense_acg",
    "conflict_graph_to_dot",
    "dense_acg_equal",
    "dense_acg_from_transactions",
    "divide_ranks_dense",
    "intern_batch",
    "schedule_from_sequences",
    "schedule_to_dot",
    "serial_schedule",
    "sort_transactions_dense",
    "validate_sort_dense",
]
