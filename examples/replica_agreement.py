#!/usr/bin/env python
"""Replica agreement: determinism across independently-processing nodes.

The DAG-blockchain design has no post-execution voting — every node must
derive bit-identical state from the same concurrent blocks.  This demo
runs three replicas behind links with different jitter, shows them
agreeing on every epoch's state root, then deliberately breaks one
replica (it runs OCC instead of Nezha) and shows the divergence being
caught immediately.

Run:  python examples/replica_agreement.py
"""

from __future__ import annotations

from repro.baselines import OCCScheduler
from repro.net import Cluster, ClusterConfig, NodeSpec
from repro.workload import SmallBankConfig

SPEC = NodeSpec(
    scheme="nezha",
    chain_count=3,
    workload=SmallBankConfig(account_count=500, skew=0.7, seed=12),
)
CONFIG = ClusterConfig(replica_count=3, miner_count=4, block_size=30)


def healthy_fleet() -> None:
    print("=== Three replicas, identical scheme (Nezha) ===")
    run = Cluster(SPEC, CONFIG).run_epochs(3)
    for outcome in run.outcomes:
        deliveries = ", ".join(f"{t:.4f}s" for t in outcome.delivery_times)
        print(
            f"  epoch {outcome.report.epoch_index}: delivered at [{deliveries}] -> "
            f"root {outcome.state_roots[0].hex()[:12]}..., "
            f"{outcome.committed[0]} committed, agreed={outcome.agreed}"
        )
    assert run.all_agreed
    print("  every replica derived the same state root despite different "
          "delivery times\n")


def rogue_replica() -> None:
    print("=== One replica silently runs a different scheme (OCC) ===")
    cluster = Cluster(SPEC, CONFIG)
    rogue = OCCScheduler()
    cluster.nodes[2].scheduler = rogue
    cluster.nodes[2].pipeline.scheduler = rogue
    for outcome in cluster.run_epochs(3).outcomes:
        roots = [root.hex()[:10] for root in outcome.state_roots]
        print(
            f"  epoch {outcome.report.epoch_index}: roots {roots} "
            f"committed {outcome.committed} agreed={outcome.agreed}"
        )
    print("  divergence detected: concurrency control is consensus-critical — "
          "a node with a different scheme forks itself off the network")


def main() -> None:
    healthy_fleet()
    rogue_replica()


if __name__ == "__main__":
    main()
