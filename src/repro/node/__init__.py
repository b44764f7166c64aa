"""Full-node transaction processing: the paper's four-phase pipeline."""

from repro.node.committer import CommitReport, Committer, SerialExecutorCommitter
from repro.node.engine import EngineStats, StreamingEpochEngine
from repro.node.executor import ConcurrentExecutor, caller_id
from repro.node.ingest import BlockIngest, IngestStats
from repro.node.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    record_epoch,
)
from repro.node.node import FullNode
from repro.node.phases import EpochReport, PhaseLatencies
from repro.node.pipeline import PipelineConfig, TransactionPipeline

__all__ = [
    "BlockIngest",
    "CommitReport",
    "Committer",
    "ConcurrentExecutor",
    "Counter",
    "EngineStats",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "EpochReport",
    "FullNode",
    "IngestStats",
    "PhaseLatencies",
    "PipelineConfig",
    "SerialExecutorCommitter",
    "StreamingEpochEngine",
    "TransactionPipeline",
    "caller_id",
    "record_epoch",
]
