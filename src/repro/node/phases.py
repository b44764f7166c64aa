"""Per-epoch reports: phase latencies and transaction accounting.

The paper reports the latency of simulating executions ("e") separately
from concurrency control and commitment ("c") — see Table IV — plus the
per-sub-phase breakdown of Figure 10.  Every pipeline run produces an
:class:`EpochReport` carrying exactly those measurements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

if TYPE_CHECKING:
    from repro.analysis.certify import EpochCertificate


@dataclass
class PhaseLatencies:
    """Wall-clock seconds of each pipeline phase, read off its span(s).

    Barrier and streaming epochs read the same spans, so a field means
    the same work on both paths:

    * ``validation`` — ``node.admit``: the node's block-accept loop
      (state-root and structural checks, chain append, epoch seal);
      0 when the pipeline is driven without a node;
    * ``execution`` — ``pipeline.simulate`` (barrier), or
      ``engine.speculate`` + ``engine.reconcile`` (streaming); 0 for
      schemes that do not speculate;
    * ``concurrency_control`` — ``pipeline.concurrency_control``, which
      on the streaming path starts from a graph the engine built in its
      own ``cc.acg_build`` span, so there it is ``cc.acg_build`` +
      ``pipeline.concurrency_control``;
    * ``commitment`` — ``pipeline.commit``.

    The barrier pipeline's ``pipeline.validate`` guard (root re-check and
    duplicate filter) is in no field; the streaming engine filters
    duplicates inside ``engine.speculate``.
    """

    validation: float = 0.0
    execution: float = 0.0
    concurrency_control: float = 0.0
    commitment: float = 0.0

    @property
    def total(self) -> float:
        """End-to-end transaction processing latency."""
        return self.validation + self.execution + self.concurrency_control + self.commitment

    @property
    def control_and_commit(self) -> float:
        """The paper's "(c)" number: concurrency control plus commitment."""
        return self.concurrency_control + self.commitment

    def as_dict(self) -> dict[str, float]:
        """Phase name -> seconds."""
        return {
            "validation": self.validation,
            "execution": self.execution,
            "concurrency_control": self.concurrency_control,
            "commitment": self.commitment,
        }


@dataclass
class EpochReport:
    """Everything measured while processing one epoch.

    ``abort_reasons`` maps each taxonomy reason (see
    :mod:`repro.obs.taxonomy`) to the number of transactions aborted for
    it; the counts always sum to ``aborted``.  ``abort_edges`` maps each
    aborted txid to its attributed conflict edges ``(peer txid, address,
    kind)`` — the CC-layer attribution for sorter/validator aborts plus a
    ``delta_guard`` edge for each commit-time guard abort.  ``revived`` counts
    §IV-D-doomed transactions the validation pass rescued back into the
    schedule (they are *not* part of ``aborted``).  ``delta_commuted``
    counts committed commutative delta units that shared an address with
    at least one other committed delta — each would have been a
    write-write conflict without operation-level CC.  ``certificate`` is
    the independent schedule certificate when the pipeline ran with
    ``certify`` on (``None`` otherwise — and for scheduler-failure
    epochs, which commit nothing).
    """

    epoch_index: int
    scheme: str
    block_concurrency: int
    input_transactions: int
    committed: int
    aborted: int
    failed_simulation: int
    state_root: bytes
    phases: PhaseLatencies = field(default_factory=PhaseLatencies)
    scheme_phases: Mapping[str, float] = field(default_factory=dict)
    commit_group_count: int = 0
    scheduler_failed: bool = False
    abort_reasons: Mapping[str, int] = field(default_factory=dict)
    abort_edges: Mapping[int, list[tuple[int, str, str]]] = field(
        default_factory=dict
    )
    revived: int = 0
    delta_commuted: int = 0
    certificate: "EpochCertificate | None" = None

    @property
    def abort_rate(self) -> float:
        """Aborted fraction of scheduled (non-failed) transactions."""
        scheduled = self.committed + self.aborted
        return self.aborted / scheduled if scheduled else 0.0

    @property
    def effective_transactions(self) -> int:
        """Valid transactions that persisted state (the paper's metric)."""
        return self.committed

    @property
    def commit_concurrency(self) -> float:
        """Mean commit-group size (1.0 for fully serial schedules)."""
        if self.commit_group_count == 0:
            return 0.0
        return self.committed / self.commit_group_count
