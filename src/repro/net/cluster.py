"""The simulated evaluation cluster (the paper's 14-node testbed).

Twelve miners propose blocks in parallel (one epoch per block interval),
one client submits SmallBank transactions, and one full node validates,
schedules, and commits — the node the paper measures.  Simulated time
covers block intervals and broadcast delays; the full node's *processing*
time is real measured wall-clock, because that is precisely the quantity
the paper's latency/throughput plots report.

Effective throughput of an epoch is ``committed / max(block_interval,
processing_time)``: when processing outpaces mining, mining is the
bottleneck (the paper's 1 s expected block interval); when processing is
slower — Serial, or CG under contention — processing time dominates and
throughput collapses, which is exactly Figure 12's story.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
from repro.storage.api import KVStore
from repro.vm.costmodel import ExecutionCostModel, ZERO_COST
from repro.workload.smallbank import SmallBankWorkload


@dataclass(frozen=True)
class ClusterConfig:
    """The simulated deployment around the node (paper defaults); what
    the node itself is lives in its :class:`~repro.net.spec.NodeSpec`."""

    miner_count: int = 12
    block_size: int = 200
    block_interval: float = 1.0
    cost_model: ExecutionCostModel = ZERO_COST

    def __post_init__(self) -> None:
        if self.miner_count <= 0:
            raise NetworkError("cluster needs at least one miner")
        if self.block_interval <= 0:
            raise NetworkError("block_interval must be positive")


@dataclass
class EpochOutcome:
    """One epoch's report plus its simulated timeline."""

    report: EpochReport
    processing_seconds: float
    epoch_seconds: float

    @property
    def effective_tps(self) -> float:
        """Committed transactions per (simulated) second for this epoch."""
        return self.report.committed / self.epoch_seconds if self.epoch_seconds else 0.0


@dataclass
class ClusterRun:
    """Aggregate results of a multi-epoch run."""

    outcomes: list[EpochOutcome] = field(default_factory=list)

    @property
    def committed(self) -> int:
        """Total committed transactions."""
        return sum(outcome.report.committed for outcome in self.outcomes)

    @property
    def duration(self) -> float:
        """Total simulated seconds."""
        return sum(outcome.epoch_seconds for outcome in self.outcomes)

    @property
    def effective_throughput(self) -> float:
        """Committed transactions per simulated second across the run."""
        return self.committed / self.duration if self.duration else 0.0

    @property
    def mean_abort_rate(self) -> float:
        """Average abort rate across epochs."""
        if not self.outcomes:
            return 0.0
        return sum(outcome.report.abort_rate for outcome in self.outcomes) / len(
            self.outcomes
        )


class Cluster:
    """Builds and drives the full simulated deployment."""

    def __init__(
        self,
        spec: NodeSpec,
        config: ClusterConfig | None = None,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        ledger: FlightLedger | None = None,
        store: KVStore | None = None,
    ) -> None:
        self.spec = spec
        self.config = config or ClusterConfig()
        self.tracer = tracer
        self.workload = SmallBankWorkload(spec.workload)
        self.mempool = Mempool()
        self.simulator = Simulator()
        self.links = LinkModel(seed=spec.workload.seed)
        self.coordinator = EpochCoordinator(
            chains=ParallelChains(chain_count=spec.chain_count, pow_params=spec.pow),
            miners=[f"miner-{i}" for i in range(self.config.miner_count)],
            block_size=self.config.block_size,
        )
        # An explicit store (e.g. an LSM-backed node) replaces the
        # in-memory trie-node store and archives the blocks; roots are
        # identical either way.
        self.node = build_node(
            spec, store=store, tracer=tracer, metrics=metrics, ledger=ledger
        )

    def close(self) -> None:
        """Close the measuring node (idempotent)."""
        self.node.close()

    def __enter__(self) -> "Cluster":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def feed_client(self, transaction_count: int) -> int:
        """The client node submits a burst of SmallBank transactions."""
        return self.mempool.submit_many(self.workload.generate(transaction_count))

    def run_epochs(self, epoch_count: int) -> ClusterRun:
        """Mine and process ``epoch_count`` epochs; refills the mempool."""
        run = ClusterRun()
        per_epoch = self.spec.chain_count * self.config.block_size
        for _ in range(epoch_count):
            if len(self.mempool) < per_epoch:
                self.feed_client(per_epoch * 2)
            run.outcomes.append(self._run_one_epoch())
        return run

    def _run_one_epoch(self) -> EpochOutcome:
        with maybe_span(self.tracer, "net.mine_epoch") as span:
            blocks = self.coordinator.mine_epoch(
                self.mempool, state_root=self.node.state_root
            )
            span.set(blocks=len(blocks))
        # Simulated time: the block interval elapses, then broadcasts land.
        broadcast_delay = max(
            self.links.block_delay(block.size) for block in blocks
        )
        self.simulator.run(until=self.simulator.now + self.config.block_interval)
        self.simulator.run(until=self.simulator.now + broadcast_delay)
        # Real time: the full node's measured processing cost.
        with maybe_span(self.tracer, "net.receive_epoch") as span:
            report = self.node.receive_epoch(blocks)
        measured = span.duration
        # Simulated execution charge at the paper's calibrated EVM rate
        # (0 by default): serial executes everything one by one, the
        # concurrent schemes only pay the parallel speculative phase.
        if self.node.scheduler.execution == "serial":
            modelled = self.config.cost_model.serial_batch_seconds(
                report.input_transactions
            )
        else:
            modelled = self.config.cost_model.concurrent_batch_seconds(
                report.input_transactions
            )
        processing = measured + modelled
        epoch_seconds = max(
            self.config.block_interval + broadcast_delay, processing
        )
        self.simulator.run(
            until=self.simulator.now
            + max(0.0, processing - self.config.block_interval)
        )
        return EpochOutcome(
            report=report,
            processing_seconds=processing,
            epoch_seconds=epoch_seconds,
        )
