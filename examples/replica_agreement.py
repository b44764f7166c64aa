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
from repro.net import NodeSpec, ReplicaNetwork, ReplicaNetworkConfig
from repro.workload import SmallBankConfig

SPEC = NodeSpec(
    scheme="nezha",
    chain_count=3,
    workload=SmallBankConfig(account_count=500, skew=0.7, seed=12),
)
CONFIG = ReplicaNetworkConfig(replica_count=3, block_size=30)


def healthy_fleet() -> None:
    print("=== Three replicas, identical scheme (Nezha) ===")
    network = ReplicaNetwork(SPEC, CONFIG)
    for _ in range(3):
        agreement = network.run_epoch()
        deliveries = ", ".join(f"{t * 1000:.1f}ms" for t in agreement.delivery_times)
        print(
            f"  epoch {agreement.epoch_index}: delivered at [{deliveries}] -> "
            f"root {agreement.state_roots[0].hex()[:12]}..., "
            f"{agreement.committed[0]} committed, agreed={agreement.agreed}"
        )
    assert network.all_agreed
    print("  every replica derived the same state root despite different "
          "delivery times\n")


def rogue_replica() -> None:
    print("=== One replica silently runs a different scheme (OCC) ===")
    network = ReplicaNetwork(SPEC, CONFIG)
    rogue = OCCScheduler()
    network.replicas[2].scheduler = rogue
    network.replicas[2].pipeline.scheduler = rogue
    for agreement in network.run_epochs(3):
        roots = [root.hex()[:10] for root in agreement.state_roots]
        print(
            f"  epoch {agreement.epoch_index}: roots {roots} "
            f"committed {agreement.committed} agreed={agreement.agreed}"
        )
    print("  divergence detected: concurrency control is consensus-critical — "
          "a node with a different scheme forks itself off the network")


def main() -> None:
    healthy_fleet()
    rogue_replica()


if __name__ == "__main__":
    main()
