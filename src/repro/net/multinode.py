"""Multi-replica network: every node processes every epoch independently.

The paper's correctness story rests on determinism — given the same
concurrent blocks, every node must derive the same commit order and the
same state root (Section III-B: "each node commits a batch of
transactions deterministically based on the proposed scheduling
information").  :class:`ReplicaNetwork` drives N independent full nodes
from one miner set through the discrete-event simulator, delivering each
epoch to each replica after a per-link broadcast delay, and checks
agreement after every epoch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.dag.chain import ParallelChains
from repro.dag.mempool import Mempool
from repro.dag.ohie import EpochCoordinator
from repro.errors import NetworkError
from repro.net.links import LinkModel
from repro.net.simulator import Simulator
from repro.net.spec import NodeSpec, build_node
from repro.node.phases import EpochReport
from repro.obs.ledger import FlightLedger
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer, maybe_span
from repro.workload.smallbank import SmallBankWorkload


@dataclass
class EpochAgreement:
    """Agreement outcome of one epoch across replicas."""

    epoch_index: int
    state_roots: list[bytes]
    committed: list[int]
    delivery_times: list[float]

    @property
    def agreed(self) -> bool:
        """True when every replica derived the same root and commit count."""
        return len(set(self.state_roots)) == 1 and len(set(self.committed)) == 1


@dataclass
class ReplicaNetworkConfig:
    """Shape of the replica deployment; what each replica is lives in the
    network's :class:`~repro.net.spec.NodeSpec`."""

    replica_count: int = 3
    block_size: int = 50

    def __post_init__(self) -> None:
        if self.replica_count < 1:
            raise NetworkError("need at least one replica")


class ReplicaNetwork:
    """N full nodes of one spec, fed identical epochs through simulated
    links.  Each replica is in memory: replicas cannot share a store."""

    def __init__(
        self,
        spec: NodeSpec,
        config: ReplicaNetworkConfig | None = None,
        tracer: Tracer | None = None,
        with_ledgers: bool = False,
    ) -> None:
        self.spec = spec
        self.config = config or ReplicaNetworkConfig()
        self.tracer = tracer
        self.simulator = Simulator()
        self.links = [
            LinkModel(seed=spec.workload.seed + replica)
            for replica in range(self.config.replica_count)
        ]
        self.mempool = Mempool()
        self.workload = SmallBankWorkload(spec.workload)
        self.coordinator = EpochCoordinator(
            chains=ParallelChains(chain_count=spec.chain_count, pow_params=spec.pow),
            miners=[f"miner-{i}" for i in range(4)],
            block_size=self.config.block_size,
        )
        # One registry per replica so per-replica abort/latency series stay
        # separable (agreement checks compare replicas; pooled counters
        # would hide a diverging one).
        self.metrics = [MetricsRegistry() for _ in range(self.config.replica_count)]
        # One flight ledger per replica, same separability argument: a
        # replica that aborts differently should show its own lifecycle.
        self.ledgers: list[FlightLedger | None] = [
            FlightLedger() if with_ledgers else None for _ in self.metrics
        ]
        self.replicas = [
            build_node(spec, tracer=tracer, metrics=metrics, ledger=ledger)
            for metrics, ledger in zip(self.metrics, self.ledgers)
        ]
        self.agreements: list[EpochAgreement] = []

    def run_epoch(self) -> EpochAgreement:
        """Mine one epoch, broadcast to every replica, check agreement."""
        per_epoch = self.spec.chain_count * self.config.block_size
        if len(self.mempool) < per_epoch:
            self.mempool.submit_many(self.workload.generate(per_epoch * 2))
        blocks = self.coordinator.mine_epoch(
            self.mempool, state_root=self.replicas[0].state_root
        )
        reports: list[EpochReport | None] = [None] * len(self.replicas)
        delivery_times: list[float] = [0.0] * len(self.replicas)

        def deliver(replica_index: int) -> Callable[[], None]:
            def handler() -> None:
                with maybe_span(
                    self.tracer, "net.replica_deliver", replica=replica_index
                ):
                    reports[replica_index] = self.replicas[
                        replica_index
                    ].receive_epoch(blocks)
                delivery_times[replica_index] = self.simulator.now

            return handler

        for index, link in enumerate(self.links):
            delay = max(link.block_delay(block.size) for block in blocks)
            self.simulator.schedule(delay, deliver(index))
        self.simulator.run()

        agreement = EpochAgreement(
            epoch_index=reports[0].epoch_index,
            state_roots=[report.state_root for report in reports],
            committed=[report.committed for report in reports],
            delivery_times=delivery_times,
        )
        self.agreements.append(agreement)
        return agreement

    def run_epochs(self, count: int) -> list[EpochAgreement]:
        """Run several epochs; stops early if agreement is ever lost."""
        out = []
        for _ in range(count):
            agreement = self.run_epoch()
            out.append(agreement)
            if not agreement.agreed:
                break
        return out

    @property
    def all_agreed(self) -> bool:
        """True while every processed epoch reached agreement."""
        return all(agreement.agreed for agreement in self.agreements)
