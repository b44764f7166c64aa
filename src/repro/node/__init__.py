"""Full-node transaction processing: the paper's four-phase pipeline."""

from repro.node.committer import CommitReport, Committer, SerialExecutorCommitter
from repro.node.engine import EngineStats, StreamingEpochEngine
from repro.node.executor import ConcurrentExecutor, caller_id
from repro.node.node import FullNode
from repro.node.phases import EpochReport, PhaseLatencies
from repro.node.pipeline import (
    SCHEMES,
    PipelineConfig,
    TransactionPipeline,
    make_scheme,
)

__all__ = [
    "SCHEMES",
    "CommitReport",
    "Committer",
    "ConcurrentExecutor",
    "EngineStats",
    "EpochReport",
    "FullNode",
    "PhaseLatencies",
    "PipelineConfig",
    "SerialExecutorCommitter",
    "StreamingEpochEngine",
    "TransactionPipeline",
    "caller_id",
    "make_scheme",
]
