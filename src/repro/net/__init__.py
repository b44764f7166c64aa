"""Network simulation: link model, node spec, and the evaluation cluster."""

from repro.net.cluster import Cluster, ClusterConfig, ClusterRun, EpochOutcome
from repro.net.links import LinkModel
from repro.net.spec import NodeSpec, build_node
from repro.net.sync import SyncReport, sync_from_archive

__all__ = [
    "Cluster",
    "ClusterConfig",
    "ClusterRun",
    "EpochOutcome",
    "LinkModel",
    "NodeSpec",
    "SyncReport",
    "build_node",
    "sync_from_archive",
]
