"""A full node: chain state, world state, and the processing pipeline.

The paper measures everything on the full node that synchronises the
entire system state.  :class:`FullNode` validates incoming blocks
structurally (PoW, chain assignment, parentage) and contextually (the
carried state root must match the previous epoch), appends them to its
parallel chains, and runs the transaction pipeline over each completed
epoch.

A node also sets the process's collector policy once it is up (see
:data:`YOUNG_GC_THRESHOLD`).
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.dag.block import Block
from repro.dag.blockstore import BlockStore
from repro.dag.chain import ParallelChains
from repro.dag.epochs import Epoch, extract_epoch
from repro.dag.pow import PoWParams
from repro.errors import BlockValidationError, StorageError
from repro.node.phases import EpochReport
from repro.node.pipeline import PipelineConfig, Scheduler, TransactionPipeline
from repro.obs.ledger import FlightLedger
from repro.obs.tracer import Tracer, maybe_span
from repro.state.statedb import StateDB
from repro.storage.api import KVStore
from repro.vm.native import ContractRegistry

if TYPE_CHECKING:
    from repro.node.engine import StreamingEpochEngine

YOUNG_GC_THRESHOLD = 50_000
"""Generation-0 collection threshold a node sets for its process.

At CPython's 700, the short-lived containers an epoch allocates in CC
and in the commit set off dozens of young collections per epoch, every
tenth of them a middle pass and every tenth of those a full pass over
the heap: the collector took 25–30 % of each benchmark workload's
epoch.  Set by every bring-up, after genesis, so bring-up collects as
before; idempotent, never undone, generations 1 and 2 untouched.
Process-wide, like the collector itself.  The heap is not frozen: that would
keep the process's garbage cycles alive for good."""


@dataclass
class FullNode:
    """One fully-validating node of the DAG-based blockchain."""

    chains: ParallelChains
    state: StateDB
    scheduler: Scheduler
    registry: ContractRegistry | None = None
    config: PipelineConfig = field(default_factory=PipelineConfig)
    reports: list[EpochReport] = field(default_factory=list)
    blockstore: BlockStore | None = None
    tracer: "Tracer | None" = None
    ledger: "FlightLedger | None" = None

    def __post_init__(self) -> None:
        self.pipeline = TransactionPipeline(
            state=self.state,
            scheduler=self.scheduler,
            registry=self.registry,
            config=self.config,
            tracer=self.tracer,
            ledger=self.ledger,
        )
        self._next_epoch = min(
            (self.chains.height(c) for c in range(self.chains.chain_count)),
            default=0,
        )
        # Seed duplicate protection from any pre-loaded chain history
        # (restored nodes must not re-execute archived transactions).
        self._seen_txids: set[int] = {
            txn.txid
            for block in self.chains.blocks.values()
            for txn in block.transactions
        }
        # The streaming engine overlaps speculation with CC + commit; it
        # needs a scheduler that accepts pre-built dense graphs (Nezha).
        # Schemes that do not declare so silently keep the barrier path.
        self.engine: "StreamingEpochEngine | None" = None
        if self.config.streaming and self.scheduler.supports_streaming:
            from repro.node.engine import StreamingEpochEngine

            self.engine = StreamingEpochEngine(self)
        _, middle, full = gc.get_threshold()
        gc.set_threshold(YOUNG_GC_THRESHOLD, middle, full)

    @classmethod
    def restore(
        cls,
        store: KVStore,
        scheduler: Scheduler,
        chain_count: int,
        registry: ContractRegistry | None = None,
        config: PipelineConfig | None = None,
        pow_params: PoWParams | None = None,
        tracer: "Tracer | None" = None,
        ledger: "FlightLedger | None" = None,
    ) -> "FullNode":
        """Reopen a node from a store holding its block archive and state.

        The state opens at the root recorded after the last seal or, if
        the node died in its first epoch, at the root its first archived
        epoch carries.  Archived epochs before the first one carrying that
        root are loaded; the rest (admitted, never recorded as sealed) are
        replayed through :func:`~repro.net.sync.sync_from_archive`.
        """
        from repro.net.sync import sync_from_archive

        archive = BlockStore(store)
        root = archive.state_root()
        loaded = 0
        while blocks := archive.epoch_blocks(loaded, chain_count):
            carried = blocks[0].header.state_root
            root = carried if root is None else root
            if carried == root:
                break
            loaded += 1
        if root is None:
            raise StorageError("the store holds no block archive to restore")
        node = cls(
            chains=archive.load_chains(chain_count, pow_params, epochs=loaded),
            state=StateDB(store=store, root=root, tracer=tracer),
            scheduler=scheduler,
            registry=registry,
            config=config or PipelineConfig(),
            blockstore=archive,
            tracer=tracer,
            ledger=ledger,
        )
        sync_from_archive(node, archive)
        return node

    def receive_epoch(self, blocks: list[Block]) -> EpochReport:
        """Validate, append, and process one epoch's concurrent blocks.

        Invalid blocks are discarded (the paper: "each node will consider
        this block invalid and discard it"); the epoch proceeds with the
        surviving blocks.

        With ``config.streaming`` the epoch routes through the
        :class:`~repro.node.engine.StreamingEpochEngine` (same report,
        bit-identical results).  A live miner needs this epoch's root to
        stamp the next epoch's blocks, so this path submits and drains in
        one call; feed :meth:`submit_epoch` directly (block replay, node
        catch-up) to realise the cross-epoch overlap.
        """
        if self.engine is not None:
            previous = self.engine.submit(blocks)
            tail = self.engine.drain()
            return tail[-1] if tail else previous  # type: ignore[return-value]
        return self.process_epoch(*self._admit(blocks))

    def _admit(self, blocks: Sequence[Block]) -> tuple[Epoch, float]:
        """The node's one block-accept loop: root-check, append, seal.

        Each block must carry the current (previous epoch's) state root
        and pass the chain layer's structural checks; survivors are
        appended to the chains and archived in one write, and the epoch
        they form is sealed.  Raises when every block was discarded.
        Returns the epoch and the ``node.admit`` span's duration — the
        epoch's validation phase on the barrier and streaming paths alike.
        """
        with maybe_span(self.tracer, "node.admit", epoch=self._next_epoch) as span:
            accepted: list[Block] = []
            for block in blocks:
                if block.header.state_root != self.state.root:
                    continue  # Discard: stale or wrong state root.
                try:
                    self.chains.append(block)
                except BlockValidationError:
                    continue  # Discard: structural failure.
                accepted.append(block)
            span.set(offered=len(blocks), accepted=len(accepted))
            if not accepted:
                raise BlockValidationError("every block of the epoch was discarded")
            if self.blockstore is not None:
                self.blockstore.put_blocks(accepted)
            epoch = extract_epoch(self.chains, self._next_epoch)
        if epoch is None:
            raise BlockValidationError(f"epoch {self._next_epoch} is empty")
        self._next_epoch += 1
        return epoch, span.duration

    def submit_epoch(self, blocks: list[Block]) -> EpochReport | None:
        """Streaming ingress: feed one epoch, get the *previous* report.

        Back-to-back submissions overlap epoch ``e``'s concurrency
        control and commit with epoch ``e+1``'s speculative execution —
        the engine's pipelining win.  Requires ``config.streaming``;
        finish with :meth:`drain` to join the last in-flight epoch.
        """
        if self.engine is None:
            raise RuntimeError("submit_epoch requires streaming mode")
        return self.engine.submit(blocks)

    def drain(self) -> list[EpochReport]:
        """Join any in-flight streamed epoch and return its report."""
        if self.engine is None:
            return []
        return self.engine.drain()

    def process_epoch(
        self, epoch: Epoch, validation_seconds: float = 0.0
    ) -> EpochReport:
        """Run the pipeline on an already-validated epoch.

        Transactions already processed in earlier epochs (a lagging miner
        re-packing them) are excluded from the batch.
        ``validation_seconds`` is the admission's time (see :meth:`_admit`).
        """
        report = self.pipeline.process_epoch(
            epoch,
            exclude_txids=self._seen_txids,
            validation_seconds=validation_seconds,
        )
        self._register_epoch(epoch)
        self._record_report(report)
        return report

    def _register_epoch(self, epoch: Epoch) -> None:
        """Fold an admitted epoch's txids into duplicate protection.

        Both the barrier path and the streaming engine route admitted
        epochs through here, so it is also where the flight ledger gets
        its ``ingest`` events — one per delivered transaction, stamped
        with the carrying block.
        """
        self._seen_txids.update(
            txn.txid for block in epoch.blocks for txn in block.transactions
        )
        if self.ledger is not None:
            events = []
            for block in epoch.blocks:
                # Hoisted per block: hashing/hexing per transaction is
                # measurable on 1000+-txn epochs.
                block_id = block.hash.hex()[:12]
                chain = block.chain_id
                events.extend(
                    {
                        "epoch": epoch.index,
                        "txid": txn.txid,
                        "kind": "ingest",
                        "block": block_id,
                        "chain": chain,
                    }
                    for txn in block.transactions
                )
            self.ledger.record_many(events)

    def _record_report(self, report: EpochReport) -> None:
        """Book a completed epoch: report history and the archive's
        state-root watermark (barrier and streaming join)."""
        self.reports.append(report)
        if self.blockstore is not None:
            self.blockstore.set_state_root(report.state_root)

    def close(self) -> None:
        """Stop the streaming engine's back-stage thread (idempotent).

        The engine drains first, so no epoch is lost in flight, and
        re-raises what its in-flight epoch raised.  A barrier node owns
        nothing to release.
        """
        if self.engine is not None:
            self.engine.close()

    def __enter__(self) -> "FullNode":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def committed_total(self) -> int:
        """Transactions committed across all processed epochs."""
        return sum(report.committed for report in self.reports)

    @property
    def next_epoch(self) -> int:
        """Index of the next epoch this node will admit."""
        return self._next_epoch

    @property
    def state_root(self) -> bytes:
        """The node's current world-state root."""
        return self.state.root
