"""Full-node transaction processing: the paper's four-phase pipeline."""

from repro.node.committer import CommitReport, Committer, SerialExecutorCommitter
from repro.node.engine import EngineStats, StreamingEpochEngine
from repro.node.executor import ConcurrentExecutor, caller_id
from repro.node.node import FullNode
from repro.node.phases import EpochReport, PhaseLatencies
from repro.node.pipeline import PipelineConfig, TransactionPipeline

__all__ = [
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
]
