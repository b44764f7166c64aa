"""Concurrency sanitizer: a vector-clock happens-before race detector.

The streaming engine (PR 8) and background LSM compaction (PR 7) made the
node genuinely multi-threaded, so shared-state races are now a first-class
correctness risk.  This module implements a FastTrack-style detector over
*logical* shared locations: instrumented call sites report reads, writes,
and synchronisation edges, and the detector flags any pair of accesses to
one location that conflict (at least one write) without a happens-before
path between them.

The detector is **off by default** and every hook is a cheap
``if _DETECTOR is None`` check, so the production hot path pays one global
load per instrumented site.  Enable it with :func:`enable` (the CLI's
``--sanitize`` flag, or the ``REPRO_SANITIZE=1`` environment variable
honoured by the test suite).

Memory model
------------
CPython's GIL makes single bytecode-level container operations atomic
(one ``dict.__setitem__``, one ``deque.append``).  Call sites that rely
on exactly that — e.g. ``StateDB.peek`` racing the background
committer by design, with reconciliation re-executing any speculation
whose reads were touched — mark their accesses ``relaxed=True``.  Like
C11 atomics, two relaxed accesses never race; a relaxed access against a
*plain* access still does.  Compound read-modify-write operations
(``x += 1``, check-then-insert) are **not** GIL-atomic and must use plain
accesses plus a lock (modelled via :meth:`RaceDetector.acquire` /
:meth:`RaceDetector.release`) or a fork/join edge
(:meth:`RaceDetector.hb_release` / :meth:`RaceDetector.hb_acquire`, used
at thread-pool ``submit()`` / ``Future.result()`` boundaries).
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from typing import Any, Hashable, Iterable

__all__ = [
    "RaceDetector",
    "RaceFinding",
    "active",
    "disable",
    "enable",
    "hb_acquire",
    "hb_release",
    "lock_acquired",
    "lock_released",
    "trace_read",
    "trace_write",
]


@dataclass(frozen=True)
class RaceFinding:
    """One detected data race between two unordered conflicting accesses."""

    location: str
    first_op: str
    first_thread: str
    second_op: str
    second_thread: str
    severity: str = "error"

    def render(self) -> str:
        return (
            f"RACE on {self.location}: {self.first_op} by {self.first_thread} "
            f"is unordered with {self.second_op} by {self.second_thread}"
        )

    def to_json(self) -> dict[str, Any]:
        return {
            "location": self.location,
            "first": {"op": self.first_op, "thread": self.first_thread},
            "second": {"op": self.second_op, "thread": self.second_thread},
            "severity": self.severity,
        }


@dataclass
class _Epoch:
    """A (thread, clock) stamp for one access, FastTrack-style."""

    tid: int
    clock: int
    op: str
    thread_name: str
    relaxed: bool


@dataclass
class _Location:
    """Access history for one logical shared location."""

    last_write: _Epoch | None = None
    reads: dict[int, _Epoch] = field(default_factory=dict)


class RaceDetector:
    """Vector-clock happens-before detector over logical locations.

    All public methods are thread-safe; the detector serialises its own
    bookkeeping with one internal lock, which also keeps the reported
    interleavings coherent.  ``Hashable`` location and sync keys are
    chosen by the instrumentation sites (tuples naming the object and
    field, e.g. ``("flat", id(state), address)``).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._clocks: dict[int, dict[int, int]] = {}
        self._sync: dict[Hashable, dict[int, int]] = {}
        self._locations: dict[Hashable, _Location] = {}
        self._findings: list[RaceFinding] = []
        self._seen: set[tuple[str, str, str, str, str]] = set()
        self.accesses = 0
        self.relaxed_accesses = 0

    # -- vector clock plumbing (callers hold self._lock) -------------------

    def _clock_of(self, tid: int) -> dict[int, int]:
        clock = self._clocks.get(tid)
        if clock is None:
            clock = {tid: 1}
            self._clocks[tid] = clock
        return clock

    @staticmethod
    def _join(into: dict[int, int], other: dict[int, int]) -> None:
        for tid, tick in other.items():
            if into.get(tid, 0) < tick:
                into[tid] = tick

    def _happens_before(self, stamp: _Epoch, tid: int) -> bool:
        """True when ``stamp`` is ordered before thread ``tid``'s present."""
        if stamp.tid == tid:
            return True
        return self._clock_of(tid).get(stamp.tid, 0) >= stamp.clock

    # -- synchronisation edges ---------------------------------------------

    def acquire(self, key: Hashable) -> None:
        """Record a lock acquire: join the lock's clock into this thread."""
        tid = threading.get_ident()
        with self._lock:
            released = self._sync.get(key)
            if released:
                self._join(self._clock_of(tid), released)

    def release(self, key: Hashable) -> None:
        """Record a lock release: publish this thread's clock to the lock."""
        tid = threading.get_ident()
        with self._lock:
            clock = self._clock_of(tid)
            stored = self._sync.setdefault(key, {})
            self._join(stored, clock)
            clock[tid] = clock.get(tid, 0) + 1

    # Fork/join edges (thread-pool submit / Future.result) reuse the same
    # mechanics: release at the publishing side, acquire at the receiving
    # side.  Separate names keep instrumentation sites self-describing.
    hb_release = release
    hb_acquire = acquire

    # -- accesses -----------------------------------------------------------

    def _record(self, key: Hashable, op: str, relaxed: bool) -> None:
        tid = threading.get_ident()
        name = threading.current_thread().name
        with self._lock:
            self.accesses += 1
            if relaxed:
                self.relaxed_accesses += 1
            location = self._locations.setdefault(str(key), _Location())
            clock = self._clock_of(tid)
            stamp = _Epoch(
                tid=tid,
                clock=clock.get(tid, 0),
                op=op,
                thread_name=name,
                relaxed=relaxed,
            )
            if op == "write":
                prior: Iterable[_Epoch] = [
                    *([location.last_write] if location.last_write else []),
                    *location.reads.values(),
                ]
                for previous in prior:
                    self._check(str(key), previous, stamp)
                location.last_write = stamp
                location.reads = {}
            else:
                if location.last_write is not None:
                    self._check(str(key), location.last_write, stamp)
                location.reads[tid] = stamp

    def _check(self, location: str, first: _Epoch, second: _Epoch) -> None:
        if first.relaxed and second.relaxed:
            return
        if self._happens_before(first, second.tid):
            return
        finding = RaceFinding(
            location=location,
            first_op=first.op,
            first_thread=first.thread_name,
            second_op=second.op,
            second_thread=second.thread_name,
        )
        dedup = (
            finding.location,
            finding.first_op,
            finding.first_thread,
            finding.second_op,
            finding.second_thread,
        )
        if dedup not in self._seen:
            self._seen.add(dedup)
            self._findings.append(finding)

    def read(self, key: Hashable, *, relaxed: bool = False) -> None:
        self._record(key, "read", relaxed)

    def write(self, key: Hashable, *, relaxed: bool = False) -> None:
        self._record(key, "write", relaxed)

    # -- reporting ----------------------------------------------------------

    def report(self) -> list[RaceFinding]:
        """All distinct races observed so far."""
        with self._lock:
            return list(self._findings)

    def summary(self) -> dict[str, Any]:
        with self._lock:
            return {
                "report": "race-sanitizer",
                "ok": not self._findings,
                "accesses": self.accesses,
                "relaxed_accesses": self.relaxed_accesses,
                "locations": len(self._locations),
                "races": [finding.to_json() for finding in self._findings],
            }


_DETECTOR: RaceDetector | None = None


def enable(detector: RaceDetector | None = None) -> RaceDetector:
    """Install (and return) the process-global detector."""
    global _DETECTOR
    _DETECTOR = detector if detector is not None else RaceDetector()
    return _DETECTOR


def disable() -> None:
    """Remove the global detector; hooks become no-ops again."""
    global _DETECTOR
    _DETECTOR = None


def active() -> RaceDetector | None:
    """The installed detector, or ``None`` when sanitizing is off."""
    return _DETECTOR


def _maybe_enable_from_env() -> None:
    if os.environ.get("REPRO_SANITIZE", "").strip() in {"1", "true", "on"}:
        enable()


# -- module-level hooks: one global load when the sanitizer is off ---------


def trace_read(key: Hashable, *, relaxed: bool = False) -> None:
    if _DETECTOR is not None:
        _DETECTOR.read(key, relaxed=relaxed)


def trace_write(key: Hashable, *, relaxed: bool = False) -> None:
    if _DETECTOR is not None:
        _DETECTOR.write(key, relaxed=relaxed)


def lock_acquired(key: Hashable) -> None:
    if _DETECTOR is not None:
        _DETECTOR.acquire(key)


def lock_released(key: Hashable) -> None:
    if _DETECTOR is not None:
        _DETECTOR.release(key)


def hb_release(key: Hashable) -> None:
    """Publish a happens-before edge (thread-pool submit, task end)."""
    if _DETECTOR is not None:
        _DETECTOR.release(key)


def hb_acquire(key: Hashable) -> None:
    """Receive a happens-before edge (task start, ``Future.result()``)."""
    if _DETECTOR is not None:
        _DETECTOR.acquire(key)


_maybe_enable_from_env()
