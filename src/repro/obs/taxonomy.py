"""Abort-reason taxonomy: *why* each transaction fell out of an epoch.

The paper reports abort **rates** (Figure 11); reproductions debugging
those rates need abort **reasons**.  Every abort recorded by the sorter
or the validator carries one of these reason strings, threaded through
``DenseSortState.reasons`` into ``NezhaResult.abort_reasons`` and
finally ``EpochReport.abort_reasons``, whose counts always sum to
``EpochReport.aborted`` (the conservation invariant, asserted by
``tests/node/test_abort_taxonomy.py``).

Reasons
-------
``unserializable_write``
    A write unit violated the R<W or W!=W invariant and the transaction
    could not be rescued (Algorithm 2's abort, plus the validator's
    re-check of the same rule).
``doomed_reorder``
    The transaction *was* rescued by the Section IV-D reordering bump
    but the bump stranded another writer, so the bumped transaction paid
    (the "doomed bump" case fixed in PR 1).
``scheme_conflict``
    Fallback bucket for schemes that abort without attribution (OCC's
    first-committer-wins, CG's feedback vertex set) and for any abort a
    scheduler fails to label.
``delta_overflow``
    The commit-time fold of a transaction's commutative deltas left some
    address outside the machine-word range ``[0, 2**64)``; the bounded
    over/underflow guard aborted the whole transaction deterministically
    (every correct replica folds the same values in the same order).

``failed_simulation`` and ``revived`` are *not* abort reasons — failed
simulations never enter the schedule (they are accounted separately in
``EpochReport.failed_simulation``) and revived transactions ended up
committing — but both are exported alongside the taxonomy counters so
dashboards see the whole funnel.
"""

from __future__ import annotations

from typing import Iterable, Mapping

UNSERIALIZABLE_WRITE = "unserializable_write"
DOOMED_REORDER = "doomed_reorder"
SCHEME_CONFLICT = "scheme_conflict"
DELTA_OVERFLOW = "delta_overflow"

ABORT_REASONS: tuple[str, ...] = (
    UNSERIALIZABLE_WRITE,
    DOOMED_REORDER,
    SCHEME_CONFLICT,
    DELTA_OVERFLOW,
)
"""Every reason an aborted transaction can carry (closed set)."""

EDGE_RW = "rw"
EDGE_WW = "ww"
EDGE_WD = "wd"
EDGE_RD = "rd"
EDGE_DELTA_GUARD = "delta_guard"

EDGE_KINDS: tuple[str, ...] = (EDGE_RW, EDGE_WW, EDGE_WD, EDGE_RD, EDGE_DELTA_GUARD)
"""Conflict-edge kinds an abort attribution can carry (closed set).

An attributed edge is the triple ``(peer, address, kind)``: the
conflicting peer transaction (txid, or ``-1`` when no single peer
exists), the contended address, and which invariant the pair violated —
``rw`` (R<W), ``ww`` (W!=W), ``rd`` (R<D), ``wd`` (W!=D), or
``delta_guard`` (the commit-time bounded-overflow fold).  Threaded from
the sorter/validator through ``NezhaResult.abort_edges`` into
``EpochReport.abort_edges`` and the flight ledger's abort events.
"""

UNKNOWN_PEER = -1
"""Sentinel peer txid for edges with no attributable counterparty."""


def taxonomy_counts(
    aborted: Iterable[int], reasons: Mapping[int, str] | None = None
) -> dict[str, int]:
    """Count aborted transactions by reason.

    ``reasons`` maps txid -> reason string for schedulers that attribute
    their aborts (Nezha); ids missing from it — or the whole mapping when
    a scheme records nothing — fall into ``scheme_conflict``.  The counts
    therefore always sum to ``len(aborted)``, whatever the scheme.
    """
    counts: dict[str, int] = {}
    for txid in sorted(aborted):
        reason = SCHEME_CONFLICT
        if reasons is not None:
            reason = reasons.get(txid, SCHEME_CONFLICT)
        if reason not in ABORT_REASONS:
            reason = SCHEME_CONFLICT
        counts[reason] = counts.get(reason, 0) + 1
    return {reason: counts[reason] for reason in sorted(counts)}
