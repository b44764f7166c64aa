"""The **epoch artifact** wire format: a JSON-safe record of
exactly what the proof-carrying schedule certifier consumes — admitted
read/write/delta sets, the emitted commit groups, and the abort
bookkeeping.  ``repro simulate --certify`` writes one per epoch and
``repro analyze certify`` re-checks them offline, so a third party can
audit a run without re-executing it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.core.schedule import Schedule
from repro.txn.rwset import RWSet


ARTIFACT_KIND = "epoch-schedule"
"""The ``artifact`` tag every epoch-artifact payload carries."""


@dataclass(frozen=True)
class EpochArtifact:
    """One epoch's certifier inputs, parsed back from the wire form.

    ``groups``/``aborted`` mirror the schedule shape
    :func:`repro.analysis.certify.certify_epoch` duck-types, so an
    ``EpochArtifact`` can be passed to it directly as the ``schedule``
    argument.
    """

    epoch_index: int
    scheme: str
    rwsets: dict[int, dict[str, Any]]
    groups: tuple[tuple[int, tuple[int, ...]], ...]
    aborted: tuple[int, ...]
    abort_reasons: dict[int, str]
    guard_aborted: tuple[int, ...]
    failed: tuple[int, ...]
    reason_counts: dict[str, int]
    abort_edges: dict[int, list[tuple[int, str, str]]]


def epoch_artifact(
    epoch_index: int,
    scheme: str,
    rwsets: Mapping[int, RWSet],
    schedule: Schedule,
    abort_reasons: Mapping[int, str] | None = None,
    guard_aborted: Sequence[int] = (),
    failed: Sequence[int] = (),
    reason_counts: Mapping[str, int] | None = None,
    abort_edges: Mapping[int, Sequence[tuple[int, str, str]]] | None = None,
) -> dict[str, Any]:
    """Flatten one epoch's certifier inputs to a JSON-safe payload.

    Write *values* are dropped deliberately — the certifier reasons about
    conflict structure only, and the artifact stays small enough to ship
    per epoch.  Delta amounts are kept: the commutativity check refolds
    them.  ``abort_edges`` carries the flight ledger's conflict
    attribution (txid -> ``[peer, address, kind]`` triples) so offline
    audits can cross-check each conviction against the rebuilt graph.
    """
    return {
        "artifact": ARTIFACT_KIND,
        "epoch": int(epoch_index),
        "scheme": scheme,
        "rwsets": {
            int(txid): {
                "reads": sorted(rwset.reads),
                "writes": sorted(rwset.writes),
                "deltas": {
                    address: int(amount)
                    for address, amount in sorted(rwset.deltas.items())
                },
            }
            for txid, rwset in sorted(rwsets.items())
        },
        "groups": [
            [int(group.sequence), [int(txid) for txid in group.txids]]
            for group in schedule.groups
        ],
        "aborted": sorted(int(txid) for txid in schedule.aborted),
        "abort_reasons": {
            int(txid): reason for txid, reason in sorted((abort_reasons or {}).items())
        },
        "guard_aborted": sorted(int(txid) for txid in guard_aborted),
        "failed": sorted(int(txid) for txid in failed),
        "reason_counts": dict(sorted((reason_counts or {}).items())),
        "abort_edges": {
            int(txid): [
                [int(peer), str(address), str(kind)]
                for peer, address, kind in edges
            ]
            for txid, edges in sorted((abort_edges or {}).items())
        },
    }


def parse_epoch_artifact(payload: Mapping[str, Any]) -> EpochArtifact:
    """Rebuild an :class:`EpochArtifact` from its JSON payload.

    Tolerates both int and str txid keys (``json.dump`` stringifies
    object keys).  Raises :class:`ValueError` on a payload that is not
    an epoch artifact.
    """
    if payload.get("artifact") != ARTIFACT_KIND:
        raise ValueError(
            f"not an epoch artifact (artifact={payload.get('artifact')!r})"
        )
    rwsets: dict[int, dict[str, Any]] = {
        int(txid): {
            "reads": list(units.get("reads", ())),
            "writes": list(units.get("writes", ())),
            "deltas": {
                address: int(amount)
                for address, amount in dict(units.get("deltas", {})).items()
            },
        }
        for txid, units in dict(payload.get("rwsets", {})).items()
    }
    groups = tuple(
        (int(sequence), tuple(int(txid) for txid in txids))
        for sequence, txids in payload.get("groups", ())
    )
    return EpochArtifact(
        epoch_index=int(payload.get("epoch", 0)),
        scheme=str(payload.get("scheme", "nezha")),
        rwsets=rwsets,
        groups=groups,
        aborted=tuple(int(txid) for txid in payload.get("aborted", ())),
        abort_reasons={
            int(txid): str(reason)
            for txid, reason in dict(payload.get("abort_reasons", {})).items()
        },
        guard_aborted=tuple(
            int(txid) for txid in payload.get("guard_aborted", ())
        ),
        failed=tuple(int(txid) for txid in payload.get("failed", ())),
        reason_counts={
            str(reason): int(count)
            for reason, count in dict(payload.get("reason_counts", {})).items()
        },
        abort_edges={
            int(txid): [
                (int(peer), str(address), str(kind))
                for peer, address, kind in edges
            ]
            for txid, edges in dict(payload.get("abort_edges", {})).items()
        },
    )
