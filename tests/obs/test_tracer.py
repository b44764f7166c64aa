"""Tracer semantics: nesting, bounded retention, lifetime aggregates."""

from __future__ import annotations

import threading

from repro.obs import Span, Tracer, maybe_span


class FakeClock:
    """Deterministic monotonic clock for span-timing assertions."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


class TestSpanNesting:
    def test_child_records_parent_id(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None

    def test_sibling_spans_share_parent(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("first") as first:
                pass
            with tracer.span("second") as second:
                pass
        assert first.parent_id == outer.span_id
        assert second.parent_id == outer.span_id

    def test_nesting_restored_after_exception(self):
        tracer = Tracer()
        try:
            with tracer.span("failing"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        with tracer.span("after") as after:
            pass
        # The failing span's frame was popped, so "after" is a root span.
        assert after.parent_id is None
        assert {span.name for span in tracer.spans()} == {"failing", "after"}

    def test_span_timing_uses_injected_clock(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("timed") as span:
            pass
        assert span.end > span.start
        assert span.duration == span.end - span.start

    def test_attrs_from_kwargs_and_set(self):
        tracer = Tracer()
        with tracer.span("attrs", epoch=3) as span:
            span.set(committed=17, scheme="nezha")
        assert span.attrs == {"epoch": 3, "committed": 17, "scheme": "nezha"}

    def test_threads_get_their_own_track_and_stack(self):
        tracer = Tracer()
        done = threading.Event()

        def worker() -> None:
            with tracer.span("thread_work"):
                pass
            done.set()

        with tracer.span("main_work"):
            thread = threading.Thread(target=worker, name="pool-thread-1")
            thread.start()
            thread.join()
        assert done.is_set()
        by_name = {span.name: span for span in tracer.spans()}
        assert by_name["main_work"].track == "main"
        assert by_name["thread_work"].track == "pool-thread-1"
        # The thread's stack is independent: its span is a root span, not
        # a child of the main thread's open span.
        assert by_name["thread_work"].parent_id is None


class TestRingEviction:
    def test_ring_keeps_newest_spans(self):
        tracer = Tracer(max_spans=3)
        for index in range(10):
            with tracer.span(f"s{index}"):
                pass
        assert len(tracer) == 3
        assert [span.name for span in tracer.spans()] == ["s7", "s8", "s9"]

    def test_clear(self):
        tracer = Tracer()
        with tracer.span("gone"):
            pass
        tracer.clear()
        assert tracer.spans() == []

    def test_evicted_counts_ring_overflow(self):
        tracer = Tracer(max_spans=3)
        for index in range(10):
            with tracer.span(f"s{index}"):
                pass
        assert tracer.evicted == 7
        assert tracer.evicted + len(tracer) == 10

    def test_evicted_is_a_lifetime_counter(self):
        tracer = Tracer(max_spans=1)
        for _ in range(4):
            with tracer.span("churn"):
                pass
        assert tracer.evicted == 3
        # clear() empties the ring but never resets the counter —
        # otherwise /metrics would undercount truncation between scrapes.
        tracer.clear()
        assert tracer.evicted == 3
        with tracer.span("more"):
            pass
        with tracer.span("more"):
            pass
        assert tracer.evicted == 4


class TestMaybeSpan:
    def test_none_tracer_yields_an_unrecorded_timed_span(self):
        """Untraced, ``maybe_span`` is the stopwatch: a real ``Span`` that
        times its block and is recorded nowhere."""
        tracer = Tracer()
        with tracer.span("outer"):
            with maybe_span(None, "anything", attr=1) as span:
                span.set(more=2)
        assert isinstance(span, Span)
        assert span.name == "anything"
        assert span.attrs == {"attr": 1, "more": 2}
        assert span.end >= span.start
        assert span.duration >= 0
        # A live tracer on the same thread neither nests nor counts it.
        assert [s.name for s in tracer.spans()] == ["outer"]
        assert set(tracer.aggregates()) == {"outer"}

    def test_live_tracer_records(self):
        tracer = Tracer()
        with maybe_span(tracer, "recorded", epoch=1) as span:
            pass
        assert span.attrs == {"epoch": 1}
        assert [s.name for s in tracer.spans()] == ["recorded"]


class TestAggregates:
    def test_counts_and_durations_accumulate_per_name(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        for _ in range(3):
            with tracer.span("hot"):
                pass
        with tracer.span("cold"):
            pass
        aggregates = tracer.aggregates()
        assert sorted(aggregates) == ["cold", "hot"]
        assert aggregates["hot"].count == 3
        # FakeClock ticks once per read: every span lasts exactly 1.0 s.
        assert aggregates["hot"].total_seconds == 3.0
        assert aggregates["hot"].mean_seconds == 1.0
        assert aggregates["cold"].count == 1

    def test_aggregates_survive_ring_eviction(self):
        tracer = Tracer(max_spans=2)
        for _ in range(10):
            with tracer.span("evicted"):
                pass
        assert len(tracer) == 2
        assert tracer.aggregates()["evicted"].count == 10

    def test_aggregates_survive_clear(self):
        tracer = Tracer()
        with tracer.span("kept"):
            pass
        tracer.clear()
        assert tracer.aggregates()["kept"].count == 1

    def test_accessor_returns_a_copy(self):
        tracer = Tracer()
        with tracer.span("immutable"):
            pass
        tracer.aggregates()["immutable"].count = 99
        assert tracer.aggregates()["immutable"].count == 1
