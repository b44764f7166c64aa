"""Span exporters: Chrome/Perfetto ``trace_event`` JSON and a text "top".

The Chrome trace-event format is the lingua franca of timeline viewers —
``chrome://tracing``, Perfetto (https://ui.perfetto.dev), and Speedscope
all load it.  Every finished span becomes one complete ("ph": "X") event;
tracks (the main thread, the streaming engine's back stage) map to
``tid`` rows with ``thread_name`` metadata so the overlap between them
is visible at a glance.

``validate_chrome_trace`` is the schema check used by tests, by the
``repro-nezha top`` command, and by CI (the workflow validates the trace
emitted by a traced ``simulate`` run before uploading it as an
artifact).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

from repro.obs.tracer import Span

_MICROS = 1e6


def _track_ids(spans: Sequence[Span]) -> dict[str, int]:
    """Stable track -> tid mapping ("main" first, the rest sorted)."""
    tracks = {span.track for span in spans}
    ordered = (["main"] if "main" in tracks else []) + sorted(tracks - {"main"})
    return {track: tid for tid, track in enumerate(ordered)}


def chrome_trace(spans: Sequence[Span]) -> dict:
    """Render spans as a Chrome/Perfetto ``trace_event`` JSON object.

    Timestamps are microseconds relative to the earliest span start, so
    the trace always begins near t=0 regardless of process uptime.
    """
    ordered = sorted(spans, key=lambda s: (s.start, s.span_id))
    origin = ordered[0].start if ordered else 0.0
    tids = _track_ids(ordered)
    events: list[dict] = [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 0,
            "tid": tid,
            "args": {"name": track},
        }
        for track, tid in sorted(tids.items(), key=lambda item: item[1])
    ]
    for span in ordered:
        events.append(
            {
                "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "ph": "X",
                "pid": 0,
                "tid": tids[span.track],
                "ts": (span.start - origin) * _MICROS,
                "dur": span.duration * _MICROS,
                "args": dict(span.attrs),
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str | Path, spans: Sequence[Span]) -> int:
    """Write the Chrome trace JSON; returns the number of span events."""
    payload = chrome_trace(spans)
    Path(path).write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return sum(1 for event in payload["traceEvents"] if event["ph"] == "X")


def validate_chrome_trace(payload: object) -> list[dict]:
    """Check a parsed trace against the ``trace_event`` schema.

    Returns the complete ("X") events; raises ``ValueError`` describing
    the first violation.  Deliberately strict about the fields the repro
    emits so a regression in the exporter fails CI rather than producing
    a trace Perfetto silently misrenders.
    """
    if not isinstance(payload, dict):
        raise ValueError("trace payload must be a JSON object")
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("trace payload must carry a 'traceEvents' list")
    complete: list[dict] = []
    for position, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValueError(f"traceEvents[{position}] is not an object")
        if not isinstance(event.get("name"), str):
            raise ValueError(f"traceEvents[{position}] lacks a string 'name'")
        phase = event.get("ph")
        if phase not in ("X", "M"):
            raise ValueError(
                f"traceEvents[{position}] has unsupported phase {phase!r}"
            )
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                raise ValueError(f"traceEvents[{position}] lacks integer {key!r}")
        if phase == "M":
            continue
        for key in ("ts", "dur"):
            value = event.get(key)
            if not isinstance(value, (int, float)) or value < 0:
                raise ValueError(
                    f"traceEvents[{position}] needs non-negative numeric {key!r}"
                )
        if not isinstance(event.get("args"), dict):
            raise ValueError(f"traceEvents[{position}] lacks an 'args' object")
        complete.append(event)
    if not complete:
        raise ValueError("trace carries no complete ('X') span events")
    return complete


# ------------------------------------------------------------- text summary


def summarize_events(events: Sequence[dict], limit: int = 15) -> list[dict]:
    """Aggregate span events by name, slowest total first.

    Each row carries ``name``/``count``/``total_ms``/``mean_ms``/``max_ms``;
    this is the data behind the ``repro-nezha top`` table.
    """
    grouped: dict[str, list[float]] = {}
    for event in events:
        if event.get("ph") != "X":
            continue
        grouped.setdefault(str(event["name"]), []).append(float(event["dur"]))
    rows = [
        {
            "name": name,
            "count": len(durations),
            "total_ms": sum(durations) / 1e3,
            "mean_ms": sum(durations) / len(durations) / 1e3,
            "max_ms": max(durations) / 1e3,
        }
        for name, durations in grouped.items()
    ]
    rows.sort(key=lambda row: (-float(row["total_ms"]), str(row["name"])))
    return rows[:limit]


def render_top(events: Sequence[dict], limit: int = 15) -> str:
    """The ``repro-nezha top`` text table: slowest span names first."""
    rows = summarize_events(events, limit=limit)
    header = f"{'span':<36} {'count':>6} {'total ms':>10} {'mean ms':>9} {'max ms':>9}"
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{str(row['name']):<36} {row['count']:>6} "
            f"{row['total_ms']:>10.2f} {row['mean_ms']:>9.3f} {row['max_ms']:>9.3f}"
        )
    return "\n".join(lines)
