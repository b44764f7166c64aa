"""The transaction flight ledger: per-transaction causal lifecycles.

Aggregate metrics say *how many* transactions aborted; the ledger says
*what happened to this one* — and *who killed it*.  It is a bounded,
dependency-free structured event log recording every transaction's path
through the node:

``ingest``
    The transaction entered the epoch via a delivered block.
``speculate``
    The streaming engine executed it speculatively against the previous
    epoch's pre-state (streaming runs only).
``reconcile``
    The reconciliation pass kept the speculation (``outcome="kept"``) or
    re-executed it because its reads intersected the committed write
    delta (``outcome="reexecuted"``) — streaming runs only.
``execute``
    Simulation finished (``ok`` carries success/failure).
``schedule``
    Concurrency control admitted it at sequence ``seq`` (``reordered`` /
    ``revived`` flag the Section IV-D rescue paths).
``commit``
    Its writes were applied; ``group`` is the commit-group sequence.
``abort``
    It fell out of the epoch.  ``reason`` is the taxonomy label and
    ``edges`` the attributed conflict edges ``[peer txid, address,
    kind]`` threaded from the sorter/validator (or the commit-time
    delta guard), so every ``unserializable_write`` / ``delta_overflow``
    abort names its killer.

Events live in a bounded ring (oldest evicted first; ``evicted`` counts
the loss so truncation is detectable).  ``write_jsonl`` exports
one JSON object per line behind a schema-versioned meta line;
``validate_ledger`` is the independent checker CI runs against exported
files.

Digest stability: ``timeline_digest`` hashes only the *stage-stable*
event kinds (ingest/execute/schedule/commit/abort) in a canonical order,
never the streaming-only speculate/reconcile events or arrival order, so
a barrier run and a streaming run over the same workload produce the
same digest — the property ``repro analyze txn`` relies on when
replaying a timeline.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import deque
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping

from repro.obs.taxonomy import (
    ABORT_REASONS,
    DELTA_OVERFLOW,
    EDGE_KINDS,
    UNSERIALIZABLE_WRITE,
)

SCHEMA = "repro-flight-ledger/1"
"""Schema tag carried by the JSONL meta line (first line of an export)."""

DEFAULT_MAX_EVENTS = 200_000
"""Default event-ring bound (~4 epochs of 480 txns at 4 events each,
with generous headroom)."""

EVENT_KINDS: tuple[str, ...] = (
    "ingest",
    "speculate",
    "reconcile",
    "execute",
    "schedule",
    "commit",
    "abort",
)
"""Every lifecycle stage an event can record (closed set)."""

STABLE_KINDS: tuple[str, ...] = ("ingest", "execute", "schedule", "commit", "abort")
"""Kinds present in both barrier and streaming runs — the digest basis."""

RECONCILE_OUTCOMES: tuple[str, ...] = ("kept", "reexecuted")

_KIND_RANK = {kind: rank for rank, kind in enumerate(EVENT_KINDS)}

Event = dict[str, Any]
"""One ledger event: ``{"epoch", "txid", "kind", ...kind attrs}``."""


class FlightLedger:
    """Bounded, thread-safe event log of per-transaction lifecycles.

    ``record``/``record_many`` are safe from any thread (the streaming
    engine's back stage commits on a background thread while the main
    thread speculates the next epoch).  The ring drops oldest events
    when full — ``evicted`` counts the drops and ``recorded`` the total
    ever recorded, so exporters can tell a complete ledger from a
    truncated one.
    """

    def __init__(self, max_events: int = DEFAULT_MAX_EVENTS) -> None:
        if max_events <= 0:
            raise ValueError("max_events must be positive")
        self.max_events = max_events
        self._events: deque[Event] = deque(maxlen=max_events)
        self._lock = threading.Lock()
        self._recorded = 0
        self._evicted = 0

    # -- recording ---------------------------------------------------------

    def record(self, epoch: int, txid: int, kind: str, **attrs: Any) -> None:
        """Record one lifecycle event."""
        event: Event = {"epoch": epoch, "txid": txid, "kind": kind}
        event.update(attrs)
        with self._lock:
            self._append(event)

    def record_many(self, events: Iterable[Event]) -> None:
        """Record pre-built events under one lock acquisition.

        The pipeline batches an epoch's events through here so the
        ledger adds one lock round-trip per phase, not per transaction.
        """
        with self._lock:
            for event in events:
                self._append(event)

    def _append(self, event: Event) -> None:
        if len(self._events) == self.max_events:
            self._evicted += 1
        self._events.append(event)
        self._recorded += 1

    # -- introspection -----------------------------------------------------

    @property
    def recorded(self) -> int:
        """Total events ever recorded (including evicted ones)."""
        with self._lock:
            return self._recorded

    @property
    def evicted(self) -> int:
        """Events silently dropped by the bounded ring."""
        with self._lock:
            return self._evicted

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def events(self) -> list[Event]:
        """Snapshot of the retained events, oldest first."""
        with self._lock:
            return list(self._events)

    # -- export ------------------------------------------------------------

    def meta(self) -> dict[str, Any]:
        """The export meta line: schema tag plus loss accounting."""
        with self._lock:
            return {
                "schema": SCHEMA,
                "events": len(self._events),
                "recorded": self._recorded,
                "evicted": self._evicted,
            }

    def write_jsonl(self, path: str | Path) -> int:
        """Export as JSONL (meta line first); returns lines written."""
        meta = self.meta()
        events = self.events()
        lines = [json.dumps(meta, sort_keys=True)]
        lines.extend(json.dumps(event, sort_keys=True) for event in events)
        Path(path).write_text("\n".join(lines) + "\n")
        return len(lines)


def read_jsonl(path: str | Path) -> tuple[dict[str, Any], list[Event]]:
    """Parse an exported ledger; returns ``(meta, events)``.

    Raises ``ValueError`` on a file that is not a flight-ledger export.
    """
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise ValueError("empty ledger file")
    meta = json.loads(lines[0])
    if not isinstance(meta, dict) or meta.get("schema") != SCHEMA:
        raise ValueError(f"not a flight ledger (expected schema {SCHEMA!r})")
    events = [json.loads(line) for line in lines[1:] if line.strip()]
    return meta, events


def validate_ledger(path: str | Path) -> list[str]:
    """Schema-check an exported ledger; returns human-readable problems.

    Checks the meta line, every event's required fields, the closed kind
    sets, and the attribution invariant: every ``unserializable_write``
    or ``delta_overflow`` abort must carry at least one attributed edge
    whose kind is in :data:`repro.obs.taxonomy.EDGE_KINDS`.
    """
    problems: list[str] = []
    try:
        meta, events = read_jsonl(path)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        return [f"unreadable ledger: {exc}"]
    for key in ("events", "recorded", "evicted"):
        if not isinstance(meta.get(key), int):
            problems.append(f"meta line missing integer field {key!r}")
    if isinstance(meta.get("events"), int) and meta["events"] != len(events):
        problems.append(
            f"meta says {meta['events']} events, file holds {len(events)}"
        )
    for index, event in enumerate(events):
        where = f"event {index}"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        epoch, txid, kind = event.get("epoch"), event.get("txid"), event.get("kind")
        if not isinstance(epoch, int) or epoch < 0:
            problems.append(f"{where}: bad epoch {epoch!r}")
        if not isinstance(txid, int):
            problems.append(f"{where}: bad txid {txid!r}")
        if kind not in EVENT_KINDS:
            problems.append(f"{where}: unknown kind {kind!r}")
            continue
        if kind == "schedule" and not isinstance(event.get("seq"), int):
            problems.append(f"{where}: schedule event without integer seq")
        if kind == "execute" and not isinstance(event.get("ok"), bool):
            problems.append(f"{where}: execute event without boolean ok")
        if kind == "reconcile" and event.get("outcome") not in RECONCILE_OUTCOMES:
            problems.append(
                f"{where}: reconcile outcome {event.get('outcome')!r}"
            )
        if kind == "abort":
            reason = event.get("reason")
            if reason not in ABORT_REASONS:
                problems.append(f"{where}: unknown abort reason {reason!r}")
            edges = event.get("edges", [])
            if not isinstance(edges, list):
                problems.append(f"{where}: edges is not a list")
                continue
            for edge in edges:
                if (
                    not isinstance(edge, (list, tuple))
                    or len(edge) != 3
                    or not isinstance(edge[0], int)
                    or not isinstance(edge[1], str)
                    or edge[2] not in EDGE_KINDS
                ):
                    problems.append(f"{where}: malformed edge {edge!r}")
            if reason in (UNSERIALIZABLE_WRITE, DELTA_OVERFLOW) and not edges:
                problems.append(
                    f"{where}: {reason} abort of T{txid} carries no "
                    "attributed edge"
                )
    return problems


def _stable_events(
    events: Iterable[Event], txid: int | None = None
) -> list[Event]:
    selected = [
        event
        for event in events
        if event["kind"] in STABLE_KINDS
        and (txid is None or event["txid"] == txid)
    ]
    selected.sort(
        key=lambda e: (
            e["epoch"],
            e["txid"],
            _KIND_RANK[e["kind"]],
            json.dumps(e, sort_keys=True),
        )
    )
    return selected


def timeline_digest(events: Iterable[Event], txid: int | None = None) -> str:
    """Hex digest over the stage-stable events (optionally one txn's).

    Stable across barrier and streaming runs of the same workload:
    speculate/reconcile events are excluded and events are hashed in
    canonical ``(epoch, txid, stage)`` order, not arrival order.
    """
    hasher = hashlib.sha256()
    for event in _stable_events(events, txid):
        hasher.update(json.dumps(event, sort_keys=True).encode())
        hasher.update(b"\n")
    return hasher.hexdigest()


def iter_timeline(events: Iterable[Event], txid: int) -> Iterator[Event]:
    """One transaction's events in causal order (stable kinds in stage
    order, speculate/reconcile interleaved by epoch)."""
    mine = [event for event in events if event["txid"] == txid]
    mine.sort(key=lambda e: (e["epoch"], _KIND_RANK[e["kind"]]))
    return iter(mine)


def aggregate_contention(
    events: Iterable[Event],
) -> dict[str, dict[str, Any]]:
    """Fold abort events into a per-address contention table.

    Returns address -> ``{"aborts", "kinds", "victims", "peers"}`` where
    *aborts* is the address's total attributed abort mass, *kinds* the
    per-edge-kind breakdown, and *victims*/*peers* the distinct
    transactions convicted on / blamed for the address.
    """
    table: dict[str, dict[str, Any]] = {}
    for event in events:
        if event["kind"] != "abort":
            continue
        for edge in event.get("edges", ()):
            peer, address, edge_kind = edge[0], str(edge[1]), edge[2]
            entry = table.setdefault(
                address,
                {"aborts": 0, "kinds": {}, "victims": set(), "peers": set()},
            )
            entry["aborts"] += 1
            entry["kinds"][edge_kind] = entry["kinds"].get(edge_kind, 0) + 1
            entry["victims"].add(event["txid"])
            if peer >= 0:
                entry["peers"].add(peer)
    return table


def delta_promotion_candidates(
    table: Mapping[str, Mapping[str, Any]]
) -> list[str]:
    """Addresses whose abort mass is write-write dominated.

    A W!=W-dominated hot address is exactly what operation-level CC's
    commutative deltas absorb (ROADMAP item 7): promote its writes to
    deltas and the collisions fold instead of aborting.  R<W-dominated
    addresses stay put — reads cannot commute.
    """
    candidates = [
        address
        for address, entry in table.items()
        if entry["kinds"].get("ww", 0) > entry["aborts"] / 2
    ]
    candidates.sort(key=lambda a: (-table[a]["aborts"], a))
    return candidates


def estimate_skew(masses: Iterable[int]) -> float | None:
    """Zipf-exponent estimate from a ranked contention-mass distribution.

    Least-squares slope of log(mass) against log(rank), negated — the
    ``s`` a Zipf(s) access pattern would need to produce this abort
    profile.  ``None`` with fewer than three contended addresses (no
    meaningful fit).
    """
    import math

    ranked = sorted((m for m in masses if m > 0), reverse=True)
    if len(ranked) < 3:
        return None
    xs = [math.log(rank + 1) for rank in range(len(ranked))]
    ys = [math.log(mass) for mass in ranked]
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    denom = sum((x - mean_x) ** 2 for x in xs)
    if denom == 0:
        return None
    slope = sum(
        (x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)
    ) / denom
    return -slope
