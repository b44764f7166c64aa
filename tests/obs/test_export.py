"""Chrome trace exporter: schema, track mapping, and the top summary."""

from __future__ import annotations

import json
import threading

import pytest

from repro.obs import (
    Tracer,
    chrome_trace,
    render_top,
    summarize_events,
    validate_chrome_trace,
    write_chrome_trace,
)


def traced_sample() -> Tracer:
    tracer = Tracer()
    with tracer.span("pipeline.epoch", epoch=0):
        with tracer.span("pipeline.simulate", txns=10):
            pass
        with tracer.span("pipeline.commit"):
            pass
    return tracer


class TestChromeTrace:
    def test_payload_passes_schema_validation(self):
        payload = chrome_trace(traced_sample().spans())
        events = validate_chrome_trace(payload)
        assert len(events) == 3

    def test_every_span_becomes_a_complete_event(self):
        payload = chrome_trace(traced_sample().spans())
        complete = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert {e["name"] for e in complete} == {
            "pipeline.epoch",
            "pipeline.simulate",
            "pipeline.commit",
        }
        for event in complete:
            assert event["cat"] == "pipeline"
            assert event["ts"] >= 0
            assert event["dur"] >= 0

    def test_timestamps_are_relative_to_earliest_start(self):
        payload = chrome_trace(traced_sample().spans())
        complete = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert min(event["ts"] for event in complete) == 0

    def test_tracks_get_thread_name_metadata(self):
        tracer = Tracer()
        with tracer.span("main_side"):
            pass

        def back_stage() -> None:
            with tracer.span("back_side"):
                pass

        thread = threading.Thread(target=back_stage, name="repro-engine_0")
        thread.start()
        thread.join()
        payload = chrome_trace(tracer.spans())
        metadata = [e for e in payload["traceEvents"] if e["ph"] == "M"]
        names = {e["args"]["name"]: e["tid"] for e in metadata}
        assert names["main"] == 0  # "main" always takes tid 0
        assert "repro-engine_0" in names
        by_name = {
            e["name"]: e["tid"] for e in payload["traceEvents"] if e["ph"] == "X"
        }
        assert by_name["main_side"] == names["main"]
        assert by_name["back_side"] == names["repro-engine_0"]

    def test_write_round_trips_through_json(self, tmp_path):
        path = tmp_path / "trace.json"
        count = write_chrome_trace(path, traced_sample().spans())
        assert count == 3
        events = validate_chrome_trace(json.loads(path.read_text()))
        assert len(events) == 3


class TestValidation:
    def test_rejects_non_object_payload(self):
        with pytest.raises(ValueError, match="JSON object"):
            validate_chrome_trace([1, 2, 3])

    def test_rejects_missing_trace_events(self):
        with pytest.raises(ValueError, match="traceEvents"):
            validate_chrome_trace({"other": []})

    def test_rejects_unknown_phase(self):
        with pytest.raises(ValueError, match="unsupported phase"):
            validate_chrome_trace(
                {"traceEvents": [{"name": "x", "ph": "B", "pid": 0, "tid": 0}]}
            )

    def test_rejects_negative_duration(self):
        event = {"name": "x", "ph": "X", "pid": 0, "tid": 0, "ts": 0, "dur": -1}
        with pytest.raises(ValueError, match="non-negative"):
            validate_chrome_trace({"traceEvents": [event]})

    def test_rejects_empty_trace(self):
        with pytest.raises(ValueError, match="no complete"):
            validate_chrome_trace({"traceEvents": []})


class TestTopSummary:
    def test_aggregates_by_name_slowest_first(self):
        events = [
            {"name": "fast", "ph": "X", "dur": 100.0},
            {"name": "slow", "ph": "X", "dur": 5000.0},
            {"name": "slow", "ph": "X", "dur": 3000.0},
            {"name": "meta", "ph": "M"},
        ]
        rows = summarize_events(events)
        assert [row["name"] for row in rows] == ["slow", "fast"]
        slow = rows[0]
        assert slow["count"] == 2
        assert slow["total_ms"] == pytest.approx(8.0)
        assert slow["mean_ms"] == pytest.approx(4.0)
        assert slow["max_ms"] == pytest.approx(5.0)

    def test_limit_caps_rows(self):
        events = [
            {"name": f"s{i}", "ph": "X", "dur": float(i)} for i in range(20)
        ]
        assert len(summarize_events(events, limit=5)) == 5

    def test_render_top_is_a_text_table(self):
        payload = chrome_trace(traced_sample().spans())
        text = render_top(payload["traceEvents"])
        assert "pipeline.epoch" in text
        assert "total ms" in text
