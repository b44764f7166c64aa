"""Network simulation: event loop, link model, and the evaluation cluster."""

from repro.net.cluster import Cluster, ClusterConfig, ClusterRun, EpochOutcome
from repro.net.links import LinkModel
from repro.net.multinode import (
    EpochAgreement,
    ReplicaNetwork,
    ReplicaNetworkConfig,
)
from repro.net.simulator import Simulator
from repro.net.spec import NodeSpec, build_node
from repro.net.sync import SyncReport, sync_from_archive

__all__ = [
    "Cluster",
    "ClusterConfig",
    "ClusterRun",
    "EpochAgreement",
    "EpochOutcome",
    "ReplicaNetwork",
    "ReplicaNetworkConfig",
    "LinkModel",
    "NodeSpec",
    "Simulator",
    "SyncReport",
    "build_node",
    "sync_from_archive",
]
