"""Structured tracing: nested spans over a monotonic clock.

The paper's whole evaluation is phase-level latency accounting (Table IV,
Figures 9-12), so the repro needs to *see* where an epoch's time goes —
down to the concurrency-control sub-phases.  A :class:`Tracer` records
:class:`Span` objects: named intervals measured with
``time.perf_counter`` (monotonic — the determinism linter's ND102 rule
explicitly allows it because span timings never feed committed state),
nested through per-thread stacks, and retained in a bounded in-memory
ring so long runs cannot grow without bound.

It is also the only clock in ``src/repro``: every interval the program
reports (``PhaseLatencies``, a scheme's ``phase_seconds()``, a bench
run's total) is the ``duration`` of the span that enclosed it —
:func:`maybe_span` times its block whether or not a tracer records it.

This module must stay importable from every layer (core, node, net)
without cycles: it imports nothing from ``repro`` except
:mod:`repro.analysis.race` — the concurrency sanitizer's hook module,
which itself imports only the standard library.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Union

from repro.analysis import race

AttrValue = Union[str, int, float, bool, None]
"""JSON-safe span attribute values."""

DEFAULT_MAX_SPANS = 100_000
"""Default bound of the finished-span ring (oldest spans are evicted)."""


@dataclass
class Span:
    """One finished (or in-flight) named interval.

    ``start``/``end`` are monotonic-clock seconds; ``track`` names the
    logical timeline the span belongs to ("main", or the name of the
    thread that opened it).
    """

    name: str
    span_id: int
    parent_id: int | None
    track: str
    start: float
    end: float = 0.0
    attrs: dict[str, AttrValue] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Span length in seconds (never negative)."""
        return max(0.0, self.end - self.start)

    def set(self, **attrs: AttrValue) -> None:
        """Attach (or overwrite) attributes on the span."""
        self.attrs.update(attrs)


@dataclass
class SpanAggregate:
    """Cumulative per-name accounting over a tracer's whole lifetime.

    The finished-span ring is bounded, so a long run silently evicts its
    oldest spans — but the aggregates keep counting: they are updated
    when a span finishes, never recomputed from the ring.
    """

    count: int = 0
    total_seconds: float = 0.0

    @property
    def mean_seconds(self) -> float:
        """Average span duration in seconds."""
        return self.total_seconds / self.count if self.count else 0.0


class Tracer:
    """Records nested spans into a bounded in-memory ring.

    Thread-safe: every thread keeps its own nesting stack (so spans
    opened on the streaming engine's back-stage thread nest correctly
    and land on their own track) while the finished ring is shared.  The
    ring is guarded by ``_ring_lock``: ``deque.append`` alone *is*
    atomic under the GIL, but the compound operations around it are not
    — the eviction count and the append must move together
    (``tests/obs/test_tracer_threads.py``).  Spans are coarse (one per
    phase), so the per-finish lock acquisition stays invisible to the
    <5% tracing-overhead gate.
    """

    def __init__(
        self,
        max_spans: int = DEFAULT_MAX_SPANS,
        track: str = "main",
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if max_spans < 1:
            raise ValueError("max_spans must be positive")
        self.track = track
        self._clock = clock
        self.max_spans = max_spans
        self._finished: deque[Span] = deque(maxlen=max_spans)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._aggregates: dict[str, SpanAggregate] = {}
        self._aggregate_lock = threading.Lock()
        self._ring_lock = threading.Lock()
        self._evicted = 0

    def _record_finished(self, span: Span) -> None:
        # Sanitizer hooks sit *inside* the real lock so the modelled
        # acquire/release edges bracket the access exactly.
        with self._ring_lock:
            race.lock_acquired(("tracer-ring", id(self)))
            race.trace_write(("tracer", id(self), "ring"))
            if len(self._finished) == self.max_spans:
                self._evicted += 1
            self._finished.append(span)
            race.lock_released(("tracer-ring", id(self)))

    # ------------------------------------------------------------- recording

    def _stack(self) -> list[Span]:
        stack: list[Span] | None = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _current_track(self) -> str:
        thread = threading.current_thread()
        if thread is threading.main_thread():
            return self.track
        return thread.name

    @contextmanager
    def span(self, name: str, **attrs: AttrValue) -> Iterator[Span]:
        """Open a nested span; it is recorded when the block exits."""
        stack = self._stack()
        opened = Span(
            name=name,
            span_id=next(self._ids),
            parent_id=stack[-1].span_id if stack else None,
            track=self._current_track(),
            start=self._clock(),
            attrs=dict(attrs),
        )
        stack.append(opened)
        try:
            yield opened
        finally:
            opened.end = self._clock()
            stack.pop()
            self._record_finished(opened)
            self._aggregate(opened)

    def _aggregate(self, span: Span) -> None:
        with self._aggregate_lock:
            race.lock_acquired(("tracer-agg", id(self)))
            race.trace_write(("tracer", id(self), "aggregates"))
            entry = self._aggregates.get(span.name)
            if entry is None:
                entry = self._aggregates[span.name] = SpanAggregate()
            entry.count += 1
            entry.total_seconds += span.duration
            race.lock_released(("tracer-agg", id(self)))

    # ------------------------------------------------------------ inspection

    def spans(self) -> list[Span]:
        """Finished spans in merged timeline order (start time, then id)."""
        with self._ring_lock:
            race.lock_acquired(("tracer-ring", id(self)))
            race.trace_read(("tracer", id(self), "ring"))
            snapshot = list(self._finished)
            race.lock_released(("tracer-ring", id(self)))
        return sorted(snapshot, key=lambda s: (s.start, s.span_id))

    def aggregates(self) -> dict[str, SpanAggregate]:
        """Per-name cumulative (count, total duration), sorted by name.

        Lifetime totals: unlike :meth:`spans`, these are unaffected by
        ring eviction and :meth:`clear`.
        """
        with self._aggregate_lock:
            race.lock_acquired(("tracer-agg", id(self)))
            race.trace_read(("tracer", id(self), "aggregates"))
            snapshot = {
                name: SpanAggregate(entry.count, entry.total_seconds)
                for name, entry in sorted(self._aggregates.items())
            }
            race.lock_released(("tracer-agg", id(self)))
        return snapshot

    @property
    def evicted(self) -> int:
        """Spans silently dropped by the bounded ring since construction.

        Lifetime counter (never reset by :meth:`clear`):
        a nonzero value means exported traces are truncated — exactly
        what ``tracer_spans_evicted_total`` surfaces on ``/metrics``.
        """
        with self._ring_lock:
            race.lock_acquired(("tracer-ring", id(self)))
            race.trace_read(("tracer", id(self), "ring"))
            count = self._evicted
            race.lock_released(("tracer-ring", id(self)))
        return count

    def clear(self) -> None:
        """Drop every finished span (cumulative aggregates survive)."""
        with self._ring_lock:
            race.lock_acquired(("tracer-ring", id(self)))
            race.trace_write(("tracer", id(self), "ring"))
            self._finished.clear()
            race.lock_released(("tracer-ring", id(self)))

    def __len__(self) -> int:
        with self._ring_lock:
            race.lock_acquired(("tracer-ring", id(self)))
            race.trace_read(("tracer", id(self), "ring"))
            count = len(self._finished)
            race.lock_released(("tracer-ring", id(self)))
        return count


@contextmanager
def maybe_span(
    tracer: Tracer | None, name: str, **attrs: AttrValue
) -> Iterator[Span]:
    """``tracer.span(...)`` when tracing is on, else an unrecorded span.

    Either way the block is timed: the yielded :class:`Span` carries its
    ``duration`` once the block exits, so an untraced ``maybe_span(None,
    ...)`` is the program's stopwatch — every interval ``src/`` reports
    (phase latencies, CC sub-phases, scheme timings) is read off one.
    Without a tracer the span lands in no ring and no aggregate, so the
    untraced hot path pays one small allocation per phase.
    """
    if tracer is not None:
        with tracer.span(name, **attrs) as span:
            yield span
        return
    span = Span(
        name=name,
        span_id=0,
        parent_id=None,
        track="",
        start=time.perf_counter(),
        attrs=dict(attrs),
    )
    try:
        yield span
    finally:
        span.end = time.perf_counter()
