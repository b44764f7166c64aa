"""The simulated evaluation cluster (the paper's 14-node testbed).

Twelve miners propose blocks in parallel (one epoch per block interval),
one client submits SmallBank transactions, and every full node (replica)
validates, schedules, and commits the same blocks.  Replica 0 is the
node the paper measures; the others check that it is not alone in its
result: Nezha has no vote after execution, so every node must derive the
same state root from the same concurrent blocks (Section III-B: "each
node commits a batch of transactions deterministically based on the
proposed scheduling information").  A run stops at the first epoch the
replicas disagree on.

Simulated time covers block intervals and broadcast delays on one clock;
the measured node's *processing* time is real measured wall-clock,
because that is precisely the quantity the paper's latency/throughput
plots report.

Effective throughput of an epoch is ``committed / max(block_interval,
processing_time)``: when processing outpaces mining, mining is the
bottleneck (the paper's 1 s expected block interval); when processing is
slower — Serial, or CG under contention — processing time dominates and
throughput collapses, which is exactly Figure 12's story.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dag.blockstore import BlockStore
from repro.dag.chain import ParallelChains
from repro.dag.mempool import Mempool
from repro.dag.ohie import EpochCoordinator
from repro.errors import NetworkError
from repro.net.links import LinkModel
from repro.net.spec import NodeSpec, build_node
from repro.net.sync import sync_from_archive
from repro.node.node import FullNode
from repro.node.phases import EpochReport
from repro.obs.ledger import FlightLedger
from repro.obs.tracer import Tracer, maybe_span
from repro.storage.api import KVStore
from repro.vm.costmodel import ExecutionCostModel, ZERO_COST
from repro.workload.smallbank import SmallBankWorkload


@dataclass(frozen=True)
class ClusterConfig:
    """The simulated deployment around the nodes (paper defaults); what
    each node is lives in its :class:`~repro.net.spec.NodeSpec`."""

    replica_count: int = 1
    miner_count: int = 12
    block_size: int = 200
    block_interval: float = 1.0
    cost_model: ExecutionCostModel = ZERO_COST

    def __post_init__(self) -> None:
        if self.replica_count < 1:
            raise NetworkError("cluster needs at least one replica")
        if self.miner_count <= 0:
            raise NetworkError("cluster needs at least one miner")
        if self.block_interval <= 0:
            raise NetworkError("block_interval must be positive")


@dataclass
class EpochOutcome:
    """One epoch: the measured node's report, its simulated timeline, and
    what every replica derived (index 0 is the measured node)."""

    report: EpochReport
    processing_seconds: float
    epoch_seconds: float
    state_roots: list[bytes] = field(default_factory=list)
    committed: list[int] = field(default_factory=list)
    delivery_times: list[float] = field(default_factory=list)

    @property
    def agreed(self) -> bool:
        """True when every replica derived the same root and commit count."""
        return len(set(self.state_roots)) <= 1 and len(set(self.committed)) <= 1


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

    @property
    def all_agreed(self) -> bool:
        """True when the replicas agreed on every epoch of the run."""
        return all(outcome.agreed for outcome in self.outcomes)


class Cluster:
    """Builds and drives the full simulated deployment.

    Replica 0 takes the store, tracer and ledger; the other
    replicas are in memory.  Over a store that already holds an archive,
    replica 0 restarts, the others catch up from the archive, and the
    miners and client go on from where it ends.
    """

    def __init__(
        self,
        spec: NodeSpec,
        config: ClusterConfig | None = None,
        tracer: Tracer | None = None,
        ledger: FlightLedger | None = None,
        store: KVStore | None = None,
    ) -> None:
        self.spec = spec
        self.config = config or ClusterConfig()
        self.tracer = tracer
        self.workload = SmallBankWorkload(spec.workload)
        self.links = [
            LinkModel(seed=spec.workload.seed + replica)
            for replica in range(self.config.replica_count)
        ]
        self.nodes = [build_node(spec, store=store, tracer=tracer, ledger=ledger)]
        self.nodes += [build_node(spec) for _ in range(1, self.config.replica_count)]
        if store is None:
            chains = ParallelChains(chain_count=spec.chain_count, pow_params=spec.pow)
        else:
            archive = BlockStore(store)
            for replica in self.nodes[1:]:
                sync_from_archive(replica, archive)
            chains = archive.load_chains(spec.chain_count, spec.pow)
        self.mempool = Mempool()
        self.mempool.refuse(
            txn.txid for block in chains.blocks.values() for txn in block.transactions
        )
        self.coordinator = EpochCoordinator(
            chains=chains,
            miners=[f"miner-{i}" for i in range(self.config.miner_count)],
            block_size=self.config.block_size,
        )
        self.now = 0.0  # the simulated clock: the start of the next epoch

    @property
    def node(self) -> FullNode:
        """The measured node (replica 0)."""
        return self.nodes[0]

    def close(self) -> None:
        """Close every replica (idempotent)."""
        for node in self.nodes:
            node.close()

    def __enter__(self) -> "Cluster":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def feed_client(self, transaction_count: int) -> int:
        """The client node submits a burst of SmallBank transactions."""
        return self.mempool.submit_many(self.workload.generate(transaction_count))

    def run_epochs(self, epoch_count: int) -> ClusterRun:
        """Mine and process up to ``epoch_count`` epochs, refilling the
        mempool; stops after the first epoch the replicas disagree on."""
        run = ClusterRun()
        per_epoch = self.spec.chain_count * self.config.block_size
        for _ in range(epoch_count):
            while len(self.mempool) < per_epoch:
                self.feed_client(per_epoch * 2)
            outcome = self._run_one_epoch()
            run.outcomes.append(outcome)
            if not outcome.agreed:
                break
        return run

    def _run_one_epoch(self) -> EpochOutcome:
        with maybe_span(self.tracer, "net.mine_epoch") as span:
            blocks = self.coordinator.mine_epoch(
                self.mempool, state_root=self.node.state_root
            )
            span.set(blocks=len(blocks))
        # Simulated time: the block interval elapses, then each replica's
        # copy of the epoch lands after its own link's broadcast delay.
        # Real time: the measured node's processing cost.
        reports: list[EpochReport] = []
        delays: list[float] = []
        for replica, (node, link) in enumerate(zip(self.nodes, self.links)):
            delays.append(max(link.block_delay(block.size) for block in blocks))
            with maybe_span(self.tracer, "net.receive_epoch", replica=replica) as span:
                reports.append(node.receive_epoch(blocks))
            if replica == 0:
                measured = span.duration
        report = reports[0]
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
        mined = self.now + self.config.block_interval
        epoch_seconds = max(self.config.block_interval + delays[0], processing)
        self.now += epoch_seconds
        return EpochOutcome(
            report=report,
            processing_seconds=processing,
            epoch_seconds=epoch_seconds,
            state_roots=[r.state_root for r in reports],
            committed=[r.committed for r in reports],
            delivery_times=[mined + delay for delay in delays],
        )
