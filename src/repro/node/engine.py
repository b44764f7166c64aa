"""Streaming epoch engine: overlap execution with CC + commit across epochs.

The barrier pipeline runs validate → simulate → CC → commit as a strict
sequence, so the flight recorder shows every phase idling while its
neighbour runs.  This engine splits one epoch across two stages
connected by a single-slot queue:

* **front stage (main thread)** — speculative execution of the *next*
  epoch's blocks, as one batch; after the join, reconciliation and the
  reconciled epoch's conflict graph;
* **back stage (background thread)** — run Nezha concurrency control on
  that graph and commit the *current* epoch.

Steady state: while epoch ``e`` runs CC + commit in the background,
epoch ``e+1`` speculates on the main thread — per-epoch wall time
approaches ``max(execution, cc+commit)`` instead of their sum.

**Reconciliation rule.**  Speculation of ``e+1`` reads state that epoch
``e`` is still committing (the state's race-tolerant
:meth:`~repro.state.statedb.StateDB.peek`).  At join, every speculated
transaction whose recorded read set intersects ``e``'s committed write
delta is re-executed against the sealed post-``e`` snapshot — exactly
the read the barrier pipeline would have performed — and replaces its
speculated result.  Transactions whose reads are disjoint from the
delta observed values the commit could not have changed, so their
speculated results are bit-identical to a barrier execution.  Delta
units and blind writes carry no state-dependence, so they never force a
re-execution.  The merged batch therefore equals the barrier batch
transaction for transaction, which makes the whole epoch — roots, abort
sets, taxonomy — bit-identical (DESIGN.md invariant 11, swept by
``tests/node/test_streaming.py``).

**Backpressure.**  The stage queue holds exactly one in-flight epoch:
``submit`` joins the previous epoch before admitting the next, so a
flood of epochs degrades to barrier pacing — bounded memory, no dropped
epochs — instead of queueing unboundedly.

**Fallback.**  Anything that invalidates the optimistic guess — a block
discarded at admission, a duplicate txid, an executor failure — falls
back to the synchronous barrier pipeline for that epoch, which is
bit-identical by construction.

Threading contract: execution (speculation, reconciliation
re-execution) stays on the main thread; the background stage only runs
pure CC and the committer (which mutates state — the main thread reads
it only through ``peek`` while a commit is in flight).
"""

from __future__ import annotations

from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.analysis import race
from repro.core.acg import DenseACG
from repro.core.incremental import IncrementalACG
from repro.dag.block import Block
from repro.dag.epochs import Epoch
from repro.node.committer import CommitReport
from repro.node.phases import EpochReport, PhaseLatencies
from repro.obs.tracer import maybe_span
from repro.txn.rwset import Address
from repro.txn.simulation import SimulationBatch, SimulationResult
from repro.txn.transaction import Transaction

if TYPE_CHECKING:
    from repro.node.node import FullNode


@dataclass
class EngineStats:
    """Speculation accounting across the engine's lifetime."""

    epochs_streamed: int = 0
    epochs_fallback: int = 0
    speculated: int = 0
    kept: int = 0
    reexecuted: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of speculated executions kept at reconciliation."""
        return self.kept / self.speculated if self.speculated else 0.0


@dataclass
class _Speculation:
    """One epoch's optimistic execution, pending admission."""

    guess: Epoch
    transactions: list[Transaction]
    results: list[SimulationResult]
    seconds: float

    def matches(self, epoch: Epoch) -> bool:
        """True when the admitted epoch is exactly the speculated one."""
        return [b.hash for b in self.guess.blocks] == [
            b.hash for b in epoch.blocks
        ]


@dataclass
class _Inflight:
    """The single back-stage slot: one epoch in CC + commit."""

    epoch: Epoch
    future: "Future[tuple[EpochReport, CommitReport]] | None"
    # Fallback epochs complete synchronously; their report parks here
    # until the next submit (or drain) hands it to the caller.
    report: EpochReport | None = None


class StreamingEpochEngine:
    """Drives a :class:`~repro.node.node.FullNode` in streaming mode.

    ``submit(blocks)`` returns the *previous* epoch's report (``None``
    when the queue was empty); ``drain()`` joins whatever is still in
    flight.  ``FullNode.receive_epoch`` composes the two so its
    per-epoch contract is unchanged; feeding ``submit`` back-to-back
    (block replay, node catch-up) is what realises the overlap.
    """

    def __init__(self, node: "FullNode") -> None:
        self.node = node
        self.pipeline = node.pipeline
        self.tracer = node.tracer
        self.stats = EngineStats()
        self._inflight: _Inflight | None = None
        # Post-join write delta of the most recently committed epoch;
        # the reconciliation set for the speculation that overlapped it.
        self._last_delta: Mapping[Address, int] | None = None
        self._stage = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-engine"
        )
        self._closed = False

    # ------------------------------------------------------------ public api

    def submit(self, blocks: Sequence[Block]) -> EpochReport | None:
        """Feed one epoch's blocks; returns the previous epoch's report.

        Speculates the new epoch first (overlapping the in-flight
        epoch's CC + commit), then joins, admits, reconciles, and hands
        the new epoch to the background stage.  Raises
        :class:`~repro.errors.BlockValidationError` — after finalising
        the in-flight epoch — when every offered block is discarded,
        matching the barrier node's contract.
        """
        if self._closed:
            raise RuntimeError("engine is closed")
        spec = self._speculate(blocks)
        previous = self._join()
        epoch, validation = self.node._admit(blocks)
        if spec is not None and spec.matches(epoch):
            self.node._register_epoch(epoch)
            batch, execution = self._reconcile(spec)
            phases = PhaseLatencies(validation=validation, execution=execution)
            self._launch(epoch, spec.transactions, batch, phases)
            self.stats.epochs_streamed += 1
        else:
            # The admitted epoch is not the one speculated (a discarded
            # block, a failed speculation): barrier-process it now, on
            # this thread, and park the finished report in the slot.
            self.stats.epochs_fallback += 1
            self._last_delta = None
            report = self.node.process_epoch(epoch, validation)
            self._inflight = _Inflight(epoch=epoch, future=None, report=report)
        return previous

    def drain(self) -> list[EpochReport]:
        """Join the in-flight epoch, if any, and return its report."""
        report = self._join()
        # The queue is now empty: the next speculation reads fully
        # committed, quiescent state, so no reconciliation set applies.
        self._last_delta = None
        return [report] if report is not None else []

    def close(self) -> None:
        """Finish in-flight work and stop the background stage."""
        if self._closed:
            return
        try:
            self._join()
        finally:
            self._closed = True
            self._stage.shutdown(wait=True)

    # ------------------------------------------------------- front stage

    def _speculate(self, blocks: Sequence[Block]) -> _Speculation | None:
        """Optimistically execute the offered blocks; ``None`` on failure.

        Runs while the previous epoch's CC + commit occupy the
        background stage — this is the engine's entire overlap win.  The
        guess assumes every block is admitted; any divergence is caught
        by the hash comparison at admission and falls back to the
        barrier path.
        """
        index = self.node.next_epoch
        ordered = sorted(blocks, key=lambda b: b.chain_id)
        guess = Epoch(index=index, blocks=tuple(ordered))
        # Duplicate protection, tested in place: the node's set already
        # holds the in-flight epoch's txids (registered at admission).
        seen = self.node._seen_txids
        fresh: set[int] = set()
        read_fn = self.node.state.peek
        executor = self.pipeline.executor
        transactions: list[Transaction] = []
        results: list[SimulationResult] = []
        try:
            with maybe_span(
                self.tracer, "engine.speculate", epoch=index
            ) as span:
                for block in ordered:
                    for txn in block.transactions:
                        if txn.txid in seen or txn.txid in fresh:
                            continue
                        fresh.add(txn.txid)
                        transactions.append(txn)
                if transactions:
                    batch = executor.execute_batch(
                        transactions,
                        read_fn,
                        snapshot_root=self.node.state.root,
                    )
                    results = list(batch.results)
                span.set(
                    blocks=len(ordered),
                    txns=len(transactions),
                    failed=sum(1 for r in results if not r.ok),
                )
        except Exception:
            return None
        self.stats.speculated += len(results)
        ledger = self.pipeline.ledger
        if ledger is not None and results:
            # Streaming-only events: excluded from the stable-kind digest,
            # so barrier and streaming timelines still hash identically.
            ledger.record_many(
                {
                    "epoch": index,
                    "txid": r.txid,
                    "kind": "speculate",
                    "ok": r.ok,
                }
                for r in results
            )
        return _Speculation(
            guess=guess,
            transactions=transactions,
            results=results,
            seconds=span.duration,
        )

    def _reconcile(self, spec: _Speculation) -> tuple[SimulationBatch, float]:
        """Keep delta-disjoint speculations; re-execute the touched rest.

        Called after the previous epoch fully committed (so the state
        serves exactly the snapshot the barrier pipeline would execute
        against).  Returns the merged batch, bit-identical to a barrier
        ``execute_batch`` over the same transactions.
        """
        delta = self._last_delta or {}
        executor = self.pipeline.executor
        state = self.node.state
        with maybe_span(
            self.tracer, "engine.reconcile", epoch=spec.guess.index
        ) as span:
            kept: list[SimulationResult] = []
            touched: list[Transaction] = []
            if delta:
                for result in spec.results:
                    if any(a in delta for a in result.rwset.reads):
                        touched.append(result.transaction)
                    else:
                        kept.append(result)
            else:
                kept = list(spec.results)
            merged = kept
            if touched:
                snapshot = state.snapshot()
                rebatch = executor.execute_batch(
                    touched, snapshot.get, snapshot_root=state.root
                )
                merged = kept + list(rebatch.results)
            span.set(kept=len(kept), reexecuted=len(touched))
        self.stats.kept += len(kept)
        self.stats.reexecuted += len(touched)
        ledger = self.pipeline.ledger
        if ledger is not None and (kept or touched):
            index = spec.guess.index
            events = [
                {
                    "epoch": index,
                    "txid": result.txid,
                    "kind": "reconcile",
                    "outcome": "kept",
                }
                for result in kept
            ]
            events.extend(
                {
                    "epoch": index,
                    "txid": txn.txid,
                    "kind": "reconcile",
                    "outcome": "reexecuted",
                }
                for txn in touched
            )
            ledger.record_many(events)
        batch = SimulationBatch(
            results=tuple(sorted(merged, key=lambda r: r.txid)),
            snapshot_root=state.root,
        )
        return batch, spec.seconds + span.duration

    # --------------------------------------------------------- back stage

    def _launch(
        self,
        epoch: Epoch,
        transactions: list[Transaction],
        batch: SimulationBatch,
        phases: PhaseLatencies,
    ) -> None:
        """Build the reconciled epoch's graph and hand both to the
        background CC + commit stage."""
        # Built here, while the back stage is idle, not on its thread:
        # graph construction allocates tens of thousands of containers,
        # and two threads allocating at once trip the cyclic collector
        # at points that differ from run to run (a full collection is
        # tens of milliseconds, so epoch times stop repeating).
        with maybe_span(self.tracer, "cc.acg_build", epoch=epoch.index) as span:
            acg = IncrementalACG()
            acg.add_block(batch.transactions())
            dense = acg.seal()
            span.set(txns=dense.txn_count, addresses=dense.addr_count)
        # Fork edge: everything the main thread wrote before the submit
        # happens-before the back stage's first access.
        race.hb_release(("engine-stage", id(self)))
        future = self._stage.submit(
            self._run_back_stage,
            epoch,
            transactions,
            batch,
            dense,
            span.duration,
            phases,
        )
        self._inflight = _Inflight(epoch=epoch, future=future)

    def _run_back_stage(
        self,
        epoch: Epoch,
        transactions: list[Transaction],
        batch: SimulationBatch,
        dense: DenseACG,
        graph_seconds: float,
        phases: PhaseLatencies,
    ) -> tuple[EpochReport, CommitReport]:
        """Background thread: schedule the graph the front stage built,
        then the pipeline's shared finish (apply, report, ledger,
        certificate).

        Its only shared mutation is the state commit, which the front
        stage reads through ``peek`` only.
        """
        race.hb_acquire(("engine-stage", id(self)))
        with maybe_span(
            self.tracer, "pipeline.concurrency_control", epoch=epoch.index
        ) as span:
            result = self.node.scheduler.schedule_dense(dense, graph_seconds)
            span.set(aborted=result.schedule.aborted_count)
        phases.concurrency_control = graph_seconds + span.duration
        outcome = self.pipeline._finish_epoch(
            epoch, transactions, batch, result, phases
        )
        # Join edge: pairs with the ``hb_acquire`` after
        # ``future.result()`` in :meth:`_join`.
        race.hb_release(("engine-join", id(self)))
        return outcome

    def _join(self) -> EpochReport | None:
        """Wait out the in-flight epoch and book its report."""
        inflight, self._inflight = self._inflight, None
        if inflight is None:
            return None
        if inflight.future is None:
            # Fallback epoch: already processed and registered.
            return inflight.report
        with maybe_span(
            self.tracer, "engine.queue_wait", epoch=inflight.epoch.index
        ):
            report, commit_report = inflight.future.result()
        race.hb_acquire(("engine-join", id(self)))
        self._last_delta = commit_report.write_delta
        self.node._record_report(report)
        return report
