"""The four-phase concurrent transaction processing pipeline.

Implements the paper's workflow (Section III-B) over one epoch's
concurrent blocks — one sequence, whatever the scheme:

1. **Validation** — verify each block's carried state root against the
   previous epoch's root (structural/PoW checks belong to the chain
   layer; the full node's admission runs both and is the phase's time).
2. **Execution** — speculatively simulate all first-appearance
   transactions on the epoch snapshot, logging read/write sets.
3. **Concurrency control** — run the configured scheme over the
   transaction summaries to obtain a commit schedule.
4. **Commitment** — apply the schedule and flush the new state root,
   then assemble the epoch's report, ledger narration and certificate.

Schemes differ only in what they declare (:class:`Scheduler`): a
``"speculative"`` scheme (Nezha, CG, OCC) takes all four steps and
applies the speculated write values group by group; a ``"declared"``
scheme (PCC) skips step 2, schedules the declared read/write sets and
*executes* its commit waves in order; the ``"serial"`` scheme skips
steps 2-3 and runs the classic execute-and-commit loop over the
deterministic block order, exactly as current DAG-based blockchains do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence, runtime_checkable

from repro.analysis.certify import EpochCertificate, certify_epoch
from repro.core.export import epoch_artifact
from repro.core.schedule import Schedule, SchemeResult
from repro.dag.epochs import Epoch
from repro.errors import BlockValidationError, CertificationError
from repro.node.committer import CommitReport, Committer, SerialExecutorCommitter
from repro.node.executor import ConcurrentExecutor
from repro.node.phases import EpochReport, PhaseLatencies
from repro.obs.ledger import Event, FlightLedger
from repro.obs.taxonomy import DELTA_OVERFLOW, SCHEME_CONFLICT, taxonomy_counts
from repro.obs.tracer import Tracer, maybe_span
from repro.state.statedb import StateDB
from repro.txn.simulation import SimulationBatch
from repro.txn.transaction import Transaction
from repro.vm.native import ContractRegistry


@runtime_checkable
class Scheduler(Protocol):
    """Any concurrency-control scheme: what it must declare to plug in.

    ``execution`` names how transactions execute relative to the
    scheme, and with it which of the pipeline's three apply disciplines
    commits the schedule:

    * ``"speculative"`` — simulate everything on the epoch snapshot,
      schedule the simulated read/write sets, apply the speculated write
      values group by group (Nezha, CG, OCC);
    * ``"declared"`` — no speculation: schedule the transactions'
      declared read/write sets, then execute the commit waves in order
      against the live state, as lock holders would (PCC);
    * ``"serial"`` — no concurrency control at all: execute and commit
      one by one in deterministic block order; ``schedule`` is not
      called.

    ``supports_deltas`` — the scheme understands commutative delta units
    (otherwise the executor hands it plain read-modify-writes whatever
    ``PipelineConfig.delta_cc`` says).  ``supports_streaming`` — the
    scheme also provides ``schedule_dense(dense, graph_seconds)`` over a
    pre-built :class:`~repro.core.acg.DenseACG`, which is what the
    streaming engine's back stage calls.  ``tracer`` is the slot the
    pipeline fills so a scheme that records sub-phase spans nests them
    under the concurrency-control span.
    """

    name: str
    execution: str
    supports_deltas: bool
    supports_streaming: bool
    tracer: Tracer | None

    def schedule(self, transactions: Sequence[Transaction]) -> SchemeResult:
        """Produce the commit schedule for one epoch's transactions."""


@dataclass
class PipelineConfig:
    """Pipeline tunables.

    ``use_vm`` executes contract bytecode on the SVM instead of the
    native contracts.  ``delta_cc`` turns on operation-level concurrency
    control: the executor promotes statically classified commutative
    writes to delta units and the committer folds them at commit time —
    effective only for schedulers declaring ``supports_deltas`` (Nezha);
    baselines keep seeing plain read-modify-writes.  The classification
    reads bytecode even for native execution, so an effective
    ``delta_cc`` needs bytecode for every deployed native function
    (``TransactionPipeline`` raises ``ValueError`` otherwise).
    ``streaming`` turns on the cross-epoch overlap engine
    (:class:`~repro.node.engine.StreamingEpochEngine`) for schedulers
    declaring ``supports_streaming``: epoch ``e+1`` speculates while
    epoch ``e``'s concurrency control and commit run on a background
    stage, with results bit-identical to the barrier pipeline (default
    off).  ``certify`` runs the independent proof-carrying schedule
    certifier (:mod:`repro.analysis.certify`) over every epoch a
    speculative scheme commits — barrier and streaming alike — attaching
    an :class:`~repro.analysis.certify.EpochCertificate` to the epoch
    report and raising :class:`~repro.errors.CertificationError` on
    rejection; the matching epoch artifact (the certifier's exact
    inputs, JSON-safe) accumulates on ``TransactionPipeline.artifacts``
    for offline re-checking via ``repro analyze certify``.
    """

    use_vm: bool = False
    delta_cc: bool = False
    streaming: bool = False
    certify: bool = False


class TransactionPipeline:
    """Drives one node's transaction processing across epochs."""

    def __init__(
        self,
        state: StateDB,
        scheduler: Scheduler,
        registry: ContractRegistry | None = None,
        config: PipelineConfig | None = None,
        tracer: Tracer | None = None,
        ledger: FlightLedger | None = None,
    ) -> None:
        disciplines = {
            "speculative": self._apply_speculated,
            "declared": self._apply_waves,
            "serial": self._apply_serial,
        }
        if not isinstance(scheduler, Scheduler) or scheduler.execution not in disciplines:
            raise TypeError(
                f"{type(scheduler).__name__} does not declare the Scheduler "
                "protocol: name, execution (one of "
                f"{sorted(disciplines)}), supports_deltas, "
                "supports_streaming, tracer, schedule()"
            )
        self._apply = disciplines[scheduler.execution]
        self.state = state
        self.scheduler = scheduler
        self.registry = registry
        self.config = config or PipelineConfig()
        self.tracer = tracer
        # Optional flight ledger: the finish step batches every epoch's
        # execute/schedule/commit/abort lifecycle events into it (the
        # streaming engine's background stage records from its thread —
        # the ledger is lock-protected).
        self.ledger = ledger
        if tracer is not None:
            scheduler.tracer = tracer
        if tracer is not None and state.tracer is None:
            # The state's seal span nests under this pipeline's commit span.
            state.tracer = tracer
        # Delta promotion changes the conflict structure the scheduler
        # sees, so it is only safe for schedulers that understand delta
        # units; everything else keeps plain read-modify-writes.
        self._delta_cc = self.config.delta_cc and scheduler.supports_deltas
        if self._delta_cc and registry is not None:
            # Delta sites are classified from bytecode even when execution
            # is native: a native function without it would promote no
            # deltas, and two nodes with one config would seal different
            # roots depending on what their registries hold.
            missing = [
                f"{name}.{function}"
                for name in registry.contracts()
                if (native := registry.native(name)) is not None
                for function in sorted(native.functions)
                if registry.bytecode(name, function) is None
            ]
            if missing:
                raise ValueError(
                    "delta_cc needs bytecode for every deployed native function; "
                    f"missing: {', '.join(missing)}"
                )
        self.executor = ConcurrentExecutor(
            registry=registry,
            use_vm=self.config.use_vm,
            delta_cc=self._delta_cc,
        )
        self.committer = Committer(tracer=tracer)
        self._serial = SerialExecutorCommitter(
            registry=registry, use_vm=self.config.use_vm
        )
        # One JSON-safe certifier-input record per certified epoch (only
        # populated when ``config.certify`` is on).  Appended by the
        # finish step — possibly on the streaming engine's background
        # thread; ``list.append`` is atomic and callers read the list
        # only after joining the epoch.
        self.artifacts: list[dict] = []

    def process_epoch(
        self,
        epoch: Epoch,
        exclude_txids: frozenset[int] | set[int] = frozenset(),
        validation_seconds: float = 0.0,
    ) -> EpochReport:
        """Run the four phases over one epoch and return its report.

        ``exclude_txids`` suppresses transactions committed in earlier
        epochs (cross-epoch duplicate protection).  ``validation_seconds``
        is how long the caller's block validation took (the node's
        ``node.admit`` span): the pipeline only re-checks the roots.
        """
        phases = PhaseLatencies(validation=validation_seconds)
        execution = self.scheduler.execution
        with maybe_span(
            self.tracer, "pipeline.epoch", epoch=epoch.index, scheme=self.scheduler.name
        ) as epoch_span:
            previous_root = self.state.root
            with maybe_span(self.tracer, "pipeline.validate") as span:
                # Guard for callers that skip the node's admission: state
                # roots must match epoch e-1.
                for block in epoch.blocks:
                    if block.header.state_root != previous_root:
                        raise BlockValidationError(
                            f"block {block.hash.hex()[:12]} carries stale state root"
                        )
                transactions = epoch.transactions(exclude=exclude_txids)
                span.set(blocks=len(epoch.blocks), txns=len(transactions))

            batch: SimulationBatch | None = None
            candidates: Sequence[Transaction] = transactions
            if execution == "speculative":
                with maybe_span(self.tracer, "pipeline.simulate") as span:
                    snapshot = self.state.snapshot()
                    batch = self.executor.execute_batch(
                        transactions, snapshot.get, snapshot_root=previous_root
                    )
                    candidates = batch.transactions()
                    span.set(txns=len(transactions), failed=batch.failed_count)
                phases.execution = span.duration

            if execution == "serial":
                # Nothing is scheduled, so nothing can abort.
                result = SchemeResult(Schedule())
            else:
                with maybe_span(self.tracer, "pipeline.concurrency_control") as span:
                    result = self.scheduler.schedule(candidates)
                    span.set(aborted=result.schedule.aborted_count)
                phases.concurrency_control = span.duration

            report, _ = self._finish_epoch(epoch, transactions, batch, result, phases)
            epoch_span.set(
                txns=report.input_transactions,
                committed=report.committed,
                aborted=report.aborted,
            )
        return report

    # ------------------------------------------------ the apply disciplines

    def _apply_speculated(
        self,
        transactions: Sequence[Transaction],
        batch: SimulationBatch | None,
        schedule: Schedule,
    ) -> CommitReport:
        """Speculative schemes: install the simulated write values."""
        assert batch is not None
        return self.committer.commit(
            schedule,
            batch.write_values(),
            self.state,
            delta_values=batch.delta_values() if self._delta_cc else None,
        )

    def _apply_waves(
        self,
        transactions: Sequence[Transaction],
        batch: SimulationBatch | None,
        schedule: Schedule,
    ) -> CommitReport:
        """Locking schemes (PCC): execute the commit waves in order.

        Each wave executes against the state left by the previous waves,
        exactly as lock holders would observe each other's writes.
        """
        by_id = {txn.txid: txn for txn in transactions}
        reverted = tuple(
            txid
            for group in schedule.iter_groups()
            for txid in group.txids
            if not self._serial.execute_and_apply(by_id[txid], self.state)
        )
        return CommitReport(
            state_root=self.state.commit(),
            committed_count=schedule.committed_count - len(reverted),
            group_count=len(schedule.groups),
            reverted=reverted,
        )

    def _apply_serial(
        self,
        transactions: Sequence[Transaction],
        batch: SimulationBatch | None,
        schedule: Schedule,
    ) -> CommitReport:
        """Serial: execute and commit one by one in block order."""
        return self._serial.run(transactions, self.state)

    # ----------------------------------------------------- the shared finish

    def _finish_epoch(
        self,
        epoch: Epoch,
        transactions: Sequence[Transaction],
        batch: SimulationBatch | None,
        result: SchemeResult,
        phases: PhaseLatencies,
    ) -> tuple[EpochReport, CommitReport]:
        """Apply a scheduled epoch and assemble everything reported on it.

        The one tail of every epoch — barrier pipeline and the streaming
        engine's background stage alike: commit through the scheme's
        apply discipline, then taxonomy, abort-edge merge, ledger
        narration, certification and the :class:`EpochReport`.  The
        :class:`CommitReport` rides along for the engine, whose next
        reconciliation reads its ``write_delta``.
        """
        schedule = result.schedule
        with maybe_span(self.tracer, "pipeline.commit") as span:
            if result.failed:
                # The scheme gave up wholesale: nothing is applied.
                commit_report = CommitReport(
                    state_root=self.state.root,
                    committed_count=0,
                    group_count=0,
                    write_delta={},
                )
            else:
                commit_report = self._apply(transactions, batch, schedule)
            span.set(
                committed=commit_report.committed_count,
                groups=commit_report.group_count,
            )
        phases.commitment = span.duration

        guard_aborted = commit_report.guard_aborted
        # Schemes that do not attribute aborts (CG, OCC) fall through to
        # the catch-all ``scheme_conflict`` bucket, so the counts always
        # sum to the aborted total regardless of scheme.
        abort_reasons = taxonomy_counts(schedule.aborted, result.abort_reasons)
        if guard_aborted:
            # Guard aborts happen after scheduling, so they are absent
            # from the schedule's aborted set; fold them in to keep the
            # taxonomy conservation invariant (counts sum to ``aborted``).
            abort_reasons[DELTA_OVERFLOW] = (
                abort_reasons.get(DELTA_OVERFLOW, 0) + len(guard_aborted)
            )
        abort_edges = self._merge_abort_edges(result, commit_report)
        if self.ledger is not None:
            self._record_lifecycle(epoch, batch, result, abort_edges, commit_report)
        certificate: EpochCertificate | None = None
        if self.config.certify and batch is not None and not result.failed:
            certificate = self._certify_epoch(
                epoch, batch, result, guard_aborted, abort_reasons, abort_edges
            )
        report = EpochReport(
            epoch_index=epoch.index,
            scheme=self.scheduler.name,
            block_concurrency=epoch.concurrency,
            input_transactions=len(transactions),
            committed=commit_report.committed_count,
            aborted=schedule.aborted_count + len(guard_aborted),
            failed_simulation=(
                batch.failed_count
                if batch is not None
                else len(commit_report.reverted)
            ),
            state_root=commit_report.state_root,
            phases=phases,
            scheme_phases=result.phase_seconds(),
            commit_group_count=commit_report.group_count,
            scheduler_failed=result.failed,
            abort_reasons=abort_reasons,
            revived=result.revived,
            delta_commuted=commit_report.delta_commuted,
            certificate=certificate,
            abort_edges=abort_edges,
        )
        if certificate is not None and not certificate.ok:
            raise CertificationError(certificate.summary())
        return report, commit_report

    @staticmethod
    def _merge_abort_edges(
        result: SchemeResult, commit_report: CommitReport
    ) -> dict[int, list[tuple[int, str, str]]]:
        """Fold CC and commit-time attribution into one txid -> edges map.

        Concurrency-control edges come from the scheduler (sorter and
        validator convictions); the committer contributes the
        delta-overflow guard's edges.  A txid never appears in both —
        guard aborts are by definition transactions CC admitted.
        """
        cc_edges = result.abort_edges
        merged = {
            txid: list(cc_edges[txid])
            for txid in result.schedule.aborted
            if txid in cc_edges
        }
        for txid, edge in commit_report.guard_edges.items():
            merged.setdefault(txid, []).append(edge)
        return merged

    def _record_lifecycle(
        self,
        epoch: Epoch,
        batch: SimulationBatch | None,
        result: SchemeResult,
        abort_edges: dict[int, list[tuple[int, str, str]]],
        commit_report: CommitReport,
    ) -> None:
        """Batch one epoch's lifecycle events into the flight ledger.

        Event content is derived only from the batch, schedule, and
        attribution maps — all bit-identical between the barrier pipeline
        and the streaming engine — so the ledger's stable-kind digest
        matches across both modes.  Transactions whose live execution
        reverted (locking waves) were never speculated, so they leave
        no events, like a failed simulation minus its ``execute``.
        """
        assert self.ledger is not None
        events: list[Event] = []
        index = epoch.index
        if batch is not None:
            events.extend(
                {"epoch": index, "txid": r.txid, "kind": "execute", "ok": r.ok}
                for r in batch.results
            )
        if result.failed:
            # The scheme failed wholesale (CG's cycle budget): there is
            # no schedule to narrate, only the executions.
            self.ledger.record_many(events)
            return
        schedule = result.schedule
        reordered = set(schedule.reordered)
        revived = set(result.revived_txids)
        reverted = set(commit_report.reverted)
        guard_aborted = set(commit_report.guard_aborted)
        scheduled = [
            (txid, group.sequence)
            for group in schedule.iter_groups()
            for txid in group.txids
            if txid not in reverted
        ]
        events.extend(
            {
                "epoch": index,
                "txid": txid,
                "kind": "schedule",
                "seq": sequence,
                "reordered": txid in reordered,
                "revived": txid in revived,
            }
            for txid, sequence in scheduled
        )
        events.extend(
            {"epoch": index, "txid": txid, "kind": "commit", "group": sequence}
            for txid, sequence in scheduled
            if txid not in guard_aborted
        )
        reasons = result.abort_reasons
        aborts = [
            (txid, reasons.get(txid, SCHEME_CONFLICT)) for txid in schedule.aborted
        ]
        aborts.extend((txid, DELTA_OVERFLOW) for txid in sorted(guard_aborted))
        events.extend(
            {
                "epoch": index,
                "txid": txid,
                "kind": "abort",
                "reason": reason,
                "edges": abort_edges.get(txid, []),
            }
            for txid, reason in aborts
        )
        self.ledger.record_many(events)

    def _certify_epoch(
        self,
        epoch: Epoch,
        batch: SimulationBatch,
        result: SchemeResult,
        guard_aborted: tuple[int, ...],
        abort_reasons: dict[str, int],
        abort_edges: dict[int, list[tuple[int, str, str]]],
    ) -> EpochCertificate:
        """Run the independent certifier over one committed epoch.

        Retains the certifier's exact inputs on :attr:`artifacts` so the
        run can be re-audited offline (``repro analyze certify``).
        """
        rwsets = {r.txid: r.rwset for r in batch.results if r.ok}
        failed_ids = sorted(r.txid for r in batch.results if not r.ok)
        schedule = result.schedule
        reasons = result.abort_reasons
        self.artifacts.append(
            epoch_artifact(
                epoch_index=epoch.index,
                scheme=self.scheduler.name,
                rwsets=rwsets,
                schedule=schedule,
                abort_reasons=reasons,
                guard_aborted=guard_aborted,
                failed=failed_ids,
                reason_counts=abort_reasons,
                abort_edges=abort_edges,
            )
        )
        with maybe_span(self.tracer, "pipeline.certify", epoch=epoch.index) as span:
            certificate = certify_epoch(
                rwsets,
                schedule,
                abort_reasons=reasons,
                guard_aborted=guard_aborted,
                failed=failed_ids,
                reason_counts=abort_reasons,
                epoch_index=epoch.index,
                scheme=self.scheduler.name,
            )
            span.set(ok=certificate.ok, edges=certificate.conflict_edges)
        return certificate
