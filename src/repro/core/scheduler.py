"""The Nezha concurrency-control scheduler (public entry point).

Chains the three steps of Figure 3(b) — ACG construction, sorting-rank
division, and per-address transaction sorting — plus the safety
validation pass, and reports each step's wall-clock time — the duration of
the span around it — so benchmarks can reproduce the paper's sub-phase
breakdown (Figure 10).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.acg import ACG, DenseACG, build_dense_acg
from repro.core.interner import intern_batch
from repro.core.rank import RankPolicy, divide_ranks_dense
from repro.core.schedule import Schedule, SchemeResult, schedule_from_sequences
from repro.core.sorting import INITIAL_SEQUENCE, UNASSIGNED, sort_transactions_dense
from repro.core.validate import validate_sort_dense
from repro.errors import SchedulingError
from repro.obs.tracer import Tracer, maybe_span
from repro.txn.transaction import Transaction


@dataclass(frozen=True)
class NezhaConfig:
    """Tunables for the Nezha scheduler.

    Attributes
    ----------
    enable_reorder:
        Apply the Section IV-D reordering enhancement (default on; turning
        it off reproduces the ablation in Figure 11's discussion).
    enable_validation:
        Run the final safety pass (see DESIGN.md).  Kept switchable for
        ablation benchmarks; production use should leave it on.
    initial_seq:
        First sequence number assigned; must be positive (``0`` is the
        sorter's "no reads" sentinel).
    rank_policy:
        Cycle-breaking rule of Algorithm 1 (ablation knob; the default is
        the paper's most-dependencies-first choice).
    """

    enable_reorder: bool = True
    enable_validation: bool = True
    initial_seq: int = INITIAL_SEQUENCE
    rank_policy: RankPolicy = RankPolicy.MAX_OUT_DEGREE

    def __post_init__(self) -> None:
        if self.initial_seq < 1:
            raise SchedulingError(
                f"initial_seq must be positive, got {self.initial_seq}"
            )


class NezhaResult(SchemeResult):
    """Everything produced by one scheduling run.

    ``acg`` is materialised lazily: scheduling runs on ``dense_acg`` only,
    so the first attribute access converts the CSR structures into the
    string-keyed :class:`~repro.core.acg.ACG` view (outside the timed
    phases).  ``rank_order`` is Algorithm 1's address order (rank 1 first).
    ``phase_seconds()`` is the Figure 10 sub-phase breakdown.
    """

    def __init__(
        self,
        schedule: Schedule,
        phases: dict[str, float],
        dense_acg: DenseACG,
        rank_order: list[str] | None = None,
        abort_reasons: dict[int, str] | None = None,
        revived: int = 0,
        delta_commuted: int = 0,
        abort_edges: dict[int, list[tuple[int, str, str]]] | None = None,
        revived_txids: tuple[int, ...] = (),
    ) -> None:
        super().__init__(schedule, phases)
        self.rank_order = rank_order if rank_order is not None else []
        self.dense_acg = dense_acg
        self.abort_reasons = abort_reasons if abort_reasons is not None else {}
        self.revived = revived
        self.delta_commuted = delta_commuted
        # Ids rescued by the validator's resurrection pass — the flight
        # ledger flags their schedule events with ``revived=True``.
        self.revived_txids = revived_txids
        # txid -> attributed conflict edges (peer txid, address, kind);
        # covers every abort the sorter/validator convicted with a peer.
        self.abort_edges = abort_edges if abort_edges is not None else {}
        self._acg: ACG | None = None

    @property
    def acg(self) -> ACG:
        """The string-keyed view of ``dense_acg`` (built on first access)."""
        if self._acg is None:
            self._acg = self.dense_acg.to_acg()
        return self._acg

    @property
    def aborted(self) -> tuple[int, ...]:
        """Ids aborted by sorting or validation."""
        return self.schedule.aborted


class NezhaScheduler:
    """Schedules one epoch's concurrent transactions with Nezha.

    Example
    -------
    >>> from repro.txn import make_transaction
    >>> txns = [make_transaction(1, reads=["A2"], writes=["A1"]),
    ...         make_transaction(2, reads=["A3"], writes=["A2"])]
    >>> result = NezhaScheduler().schedule(txns)
    >>> result.schedule.aborted
    ()
    """

    name = "nezha"

    # Declared scheme capabilities (the node's ``Scheduler`` protocol):
    # snapshot-speculated execution; commutative delta units are
    # first-class (the executor only emits them for schedulers declaring
    # so — baselines keep seeing plain read-modify-writes); and
    # ``schedule_dense`` accepts the streaming engine's pre-built graph.
    execution = "speculative"
    supports_deltas = True
    supports_streaming = True

    def __init__(
        self, config: NezhaConfig | None = None, tracer: Tracer | None = None
    ) -> None:
        self.config = config or NezhaConfig()
        # Optional span recorder for the sub-phase breakdown; the pipeline
        # injects its tracer here so CC sub-phases nest under its epoch span.
        self.tracer = tracer

    def schedule(self, transactions: Sequence[Transaction]) -> NezhaResult:
        """Produce a commit schedule for a batch of transactions.

        The input order is irrelevant; ids provide the deterministic order.
        Interns the batch once, then every phase runs on flat arrays.
        """
        with maybe_span(self.tracer, "cc.acg_build") as span:
            dense = build_dense_acg(intern_batch(transactions))
            span.set(txns=dense.txn_count, addresses=dense.addr_count)
        return self._finish_dense(dense, span.duration)

    def schedule_dense(
        self, dense: DenseACG, graph_seconds: float = 0.0
    ) -> NezhaResult:
        """Schedule a pre-built dense graph (streaming engine entry point).

        The streaming epoch engine seals the reconciled epoch's graph
        (:class:`~repro.core.incremental.IncrementalACG`) inside its own
        ``cc.acg_build`` span and hands it here with that span's
        duration as ``graph_seconds``, so the ``graph_construction``
        sub-phase stays comparable to a barrier run.  Graph builder and
        everything after it are the ones :meth:`schedule` runs, so
        results are bit-identical to it over the same transaction set.
        """
        return self._finish_dense(dense, graph_seconds)

    def _finish_dense(self, dense: DenseACG, graph_seconds: float) -> NezhaResult:
        """Rank + sort + validate an already-built dense graph."""
        with maybe_span(self.tracer, "cc.rank_division") as rank_span:
            rank_ids = divide_ranks_dense(dense, policy=self.config.rank_policy)

        with maybe_span(self.tracer, "cc.sorting") as sort_span:
            state = sort_transactions_dense(
                dense,
                rank_ids,
                enable_reorder=self.config.enable_reorder,
                initial_seq=self.config.initial_seq,
            )
            sort_span.set(reordered=len(state.reordered), aborted=len(state.reasons))

        validation = 0.0
        if self.config.enable_validation:
            with maybe_span(self.tracer, "cc.validate") as span:
                validate_sort_dense(
                    dense, state, enable_reorder=self.config.enable_reorder
                )
                span.set(
                    aborted=len(state.reasons),
                    reordered=len(state.reordered),
                    revived=len(state.revived),
                )
            validation = span.duration

        # Translate dense ids back to txids/addresses only at the
        # Schedule boundary.
        txids = dense.batch.txids
        seq = state.seq
        alive = state.alive
        sequences = {
            txids[i]: seq[i]
            for i in range(dense.txn_count)
            if alive[i] and seq[i] != UNASSIGNED
        }
        aborted = {txids[i] for i in range(dense.txn_count) if not alive[i]}
        reordered = {txids[i] for i in state.reordered}
        schedule = schedule_from_sequences(
            sequences=sequences, aborted=aborted, reordered=reordered
        )
        addresses = dense.batch.addresses
        delta_commuted = 0
        if len(dense.delta_txns):
            for addr_id in range(dense.addr_count):
                committed = sum(1 for t in dense.deltas_of(addr_id) if alive[t])
                if committed >= 2:
                    delta_commuted += committed
        return NezhaResult(
            schedule=schedule,
            phases={
                "graph_construction": graph_seconds,
                "rank_division": rank_span.duration,
                "transaction_sorting": sort_span.duration,
                "validation": validation,
            },
            rank_order=[addresses[a] for a in rank_ids],
            dense_acg=dense,
            abort_reasons={
                txids[i]: reason for i, reason in sorted(state.reasons.items())
            },
            revived=len(state.revived),
            delta_commuted=delta_commuted,
            abort_edges={
                txids[i]: [
                    (txids[peer] if peer >= 0 else peer, addresses[addr], kind)
                ]
                for i, (peer, addr, kind) in sorted(state.edges.items())
            },
            revived_txids=tuple(sorted(txids[i] for i in state.revived)),
        )
