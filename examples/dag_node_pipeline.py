#!/usr/bin/env python
"""A full OHIE network: miners, a client, and a measuring full node.

Reproduces the paper's deployment in miniature: 12 miners propose blocks
onto parallel chains (the mined hash picks the chain), a client submits
SmallBank transactions, and a full node runs the four-phase pipeline —
validation, concurrent speculative execution, Nezha concurrency control,
and group-concurrent commitment — printing per-epoch statistics and the
evolving MPT state roots.

Run:  python examples/dag_node_pipeline.py
"""

from __future__ import annotations

from repro.dag import EpochCoordinator, Mempool, ParallelChains, PoWParams
from repro.net import NodeSpec, build_node
from repro.workload import SmallBankConfig, SmallBankWorkload

CHAINS = 6
BLOCK_SIZE = 50
EPOCHS = 5


def main() -> None:
    spec = NodeSpec(
        scheme="nezha",
        chain_count=CHAINS,
        workload=SmallBankConfig(account_count=2_000, skew=0.6, seed=2024),
        pow=PoWParams(difficulty_bits=8),
    )

    # The measuring full node (the paper's "full node to synchronize the
    # entire system state").
    node = build_node(spec)
    print(f"genesis state root: {node.state_root.hex()[:16]}...")

    # Miner-side chain view plus the shared mempool fed by the client.
    miner_chains = ParallelChains(chain_count=CHAINS, pow_params=spec.pow)
    coordinator = EpochCoordinator(
        chains=miner_chains,
        miners=[f"miner-{i:02d}" for i in range(12)],
        block_size=BLOCK_SIZE,
    )
    mempool = Mempool()
    client = SmallBankWorkload(spec.workload)

    header = (
        f"{'epoch':>5} {'blocks':>6} {'txns':>5} {'committed':>9} "
        f"{'aborted':>7} {'reverted':>8} {'groups':>6} {'cc (ms)':>8} "
        f"{'total (ms)':>10}  state root"
    )
    print(header)
    print("-" * len(header))
    for epoch_index in range(EPOCHS):
        mempool.submit_many(client.generate(CHAINS * BLOCK_SIZE))
        blocks = coordinator.mine_epoch(mempool, state_root=node.state_root)
        report = node.receive_epoch(blocks)
        print(
            f"{epoch_index:>5} {len(blocks):>6} {report.input_transactions:>5} "
            f"{report.committed:>9} {report.aborted:>7} "
            f"{report.failed_simulation:>8} {report.commit_group_count:>6} "
            f"{report.phases.concurrency_control * 1000:>8.1f} "
            f"{report.phases.total * 1000:>10.1f}  "
            f"{report.state_root.hex()[:16]}..."
        )

    total = node.committed_total
    print(f"\n{total} transactions committed over {EPOCHS} epochs")
    print(f"mean commit concurrency: "
          f"{sum(r.commit_concurrency for r in node.reports) / EPOCHS:.1f} "
          f"transactions per commit group")
    print(f"mined blocks accepted by the full node: {node.chains.total_blocks()}")


if __name__ == "__main__":
    main()
