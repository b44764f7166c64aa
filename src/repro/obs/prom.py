"""Prometheus text exposition of what the node already records.

:func:`node_families` builds the node's metric families at render time
from its epoch reports and its streaming engine's stats: there is no
second, mutable copy of the numbers to keep in step or to race a scrape
against; :func:`collector_family` reads the process's garbage-collector
counts the same way.  :func:`render_prometheus` renders a family list in the
Prometheus text exposition format (version 0.0.4): exactly one
``# HELP`` and one ``# TYPE`` header per family, one sample line per
label set, with label values escaped per the spec (backslash, double
quote, and newline).  Summaries carry quantiles, ``_sum`` and ``_count``
over every observation.

Written via ``--metrics-out`` on the CLI, served live by the
``--metrics-port`` endpoint (:mod:`repro.obs.endpoint`), or however the
caller likes.  :func:`parse_prometheus` is the conformance half: a small
exposition parser the round-trip test pins the renderer against (every
family headered exactly once, every sample attributable to a declared
family).
"""

from __future__ import annotations

import gc
import re
from collections import Counter
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping, NamedTuple, Sequence

from repro.analysis.metrics import percentile

if TYPE_CHECKING:
    from repro.node.engine import EngineStats
    from repro.node.phases import EpochReport
    from repro.obs.ledger import FlightLedger
    from repro.obs.tracer import Tracer

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_NAME_BAD_CHARS = re.compile(r"[^a-zA-Z0-9_:]")

_SUMMARY_QUANTILES = (0.5, 0.95, 0.99)


def sanitize_metric_name(name: str) -> str:
    """Coerce a family name into a legal Prometheus metric name."""
    if _NAME_OK.match(name):
        return name
    cleaned = _NAME_BAD_CHARS.sub("_", name)
    if not cleaned or not re.match(r"[a-zA-Z_:]", cleaned[0]):
        cleaned = "_" + cleaned
    return cleaned


def escape_label_value(value: str) -> str:
    """Escape a label value per the text-exposition spec."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def render_labels(labels: Mapping[str, str]) -> str:
    """``{k="v",...}`` with keys sorted, or the empty string."""
    if not labels:
        return ""
    parts = [
        f'{sanitize_metric_name(key)}="{escape_label_value(str(value))}"'
        for key, value in sorted(labels.items())
    ]
    return "{" + ",".join(parts) + "}"


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _summary_lines(
    name: str, labels: Mapping[str, str], observations: Sequence[float]
) -> list[str]:
    ordered = sorted(observations)
    lines = []
    for quantile in _SUMMARY_QUANTILES:
        merged = dict(labels)
        merged["quantile"] = str(quantile)
        lines.append(
            f"{name}{render_labels(merged)} {_format_value(percentile(ordered, quantile))}"
        )
    suffix = render_labels(labels)
    lines.append(f"{name}_sum{suffix} {_format_value(sum(observations))}")
    lines.append(f"{name}_count{suffix} {len(observations)}")
    return lines


class Family(NamedTuple):
    """One metric family: name, Prometheus type and ``(labels, value)``
    series.  A summary's value is its list of observations; a family
    without series renders nothing."""

    name: str
    kind: str
    series: list[tuple[dict[str, str], Any]]


def _single(name: str, kind: str, value: Any) -> Family:
    return Family(name, kind, [({}, value)])


def _labelled(name: str, kind: str, label: str, values: Mapping[str, Any]) -> Family:
    return Family(name, kind, [({label: key}, values[key]) for key in sorted(values)])


def node_families(
    reports: Sequence["EpochReport"], engine: "EngineStats | None" = None
) -> list[Family]:
    """The node's families, from its epoch reports and engine stats.

    Counters sum over ``reports``; ``last_*`` gauges read the newest
    report; summaries observe every report.  The revival, delta-commute
    and scheduler-failure counters appear once nonzero, each abort
    reason once reported, and the ``engine_*`` gauges once the engine
    has taken an epoch.  Families come sorted by name.
    """
    families: list[Family] = []
    if reports:
        reasons: Counter[str] = Counter()
        for report in reports:
            reasons.update(report.abort_reasons)
        phases = [report.phases.as_dict() for report in reports]
        families += [
            _single("epochs_total", "counter", len(reports)),
            _labelled(
                "epochs_by_scheme_total",
                "counter",
                "scheme",
                Counter(report.scheme for report in reports),
            ),
            _labelled("txns_abort_reason_total", "counter", "reason", reasons),
            _single("last_epoch_index", "gauge", reports[-1].epoch_index),
            _single("last_abort_rate", "gauge", reports[-1].abort_rate),
            _single("epoch_latency_seconds", "summary", [r.phases.total for r in reports]),
            _labelled(
                "phase_latency_seconds",
                "summary",
                "phase",
                {phase: [seconds[phase] for seconds in phases] for phase in phases[0]},
            ),
            _single(
                "commit_group_count", "summary", [r.commit_group_count for r in reports]
            ),
        ]
        for name, field, always in (
            ("txns_input_total", "input_transactions", True),
            ("txns_committed_total", "committed", True),
            ("txns_aborted_total", "aborted", True),
            ("txns_failed_simulation_total", "failed_simulation", True),
            ("txns_revived_total", "revived", False),
            ("txns_delta_commuted_total", "delta_commuted", False),
            ("scheduler_failures_total", "scheduler_failed", False),
        ):
            total = sum(getattr(report, field) for report in reports)
            if always or total:
                families.append(_single(name, "counter", total))
    if engine is not None and engine.epochs_streamed + engine.epochs_fallback:
        families += [
            _single("engine_speculation_hit_rate", "gauge", engine.hit_rate),
            _single("engine_speculated_total", "gauge", engine.speculated),
            _single("engine_kept_total", "gauge", engine.kept),
            _single("engine_reexecuted_total", "gauge", engine.reexecuted),
            _single("engine_epochs_streamed", "gauge", engine.epochs_streamed),
            _single("engine_epochs_fallback", "gauge", engine.epochs_fallback),
        ]
    return sorted(families, key=lambda family: family.name)


def collector_family() -> Family:
    """``gc_collections_total{generation}``: the process's cyclic-GC
    collections per generation, read from :func:`gc.get_stats` when
    rendered (nothing is counted on the epoch path)."""
    return Family(
        "gc_collections_total",
        "counter",
        [
            ({"generation": str(generation)}, stats["collections"])
            for generation, stats in enumerate(gc.get_stats())
        ],
    )


_HELP_TEXT = {
    "gc_collections_total": "Cyclic-GC collections per generation since the process started",
    "repro_span_count": "Spans finished per name (survives ring eviction)",
    "repro_span_seconds_total": "Cumulative span seconds per name",
    "tracer_spans_evicted_total": (
        "Spans silently dropped by the bounded span ring"
    ),
    "ledger_events_total": "Flight-ledger lifecycle events ever recorded",
    "ledger_events_evicted_total": (
        "Flight-ledger events dropped by the bounded event ring"
    ),
}


def _help_line(name: str, kind: str) -> str:
    text = _HELP_TEXT.get(name, f"{name} ({kind} exported by repro)")
    escaped = text.replace("\\", "\\\\").replace("\n", "\\n")
    return f"# HELP {name} {escaped}"


def _family_header(name: str, kind: str) -> list[str]:
    return [_help_line(name, kind), f"# TYPE {name} {kind}"]


def render_tracer_aggregates(tracer: "Tracer") -> str:
    """The tracer's cumulative per-span-name totals plus the ring's
    eviction counter, as counter families.

    The aggregates survive the bounded span ring's eviction, so these
    counters stay truthful over runs long enough to overflow the ring —
    exactly the runs where a Prometheus scrape matters — and
    ``tracer_spans_evicted_total`` says how much of the *span* export
    (Chrome trace) such a run silently lost.
    """
    aggregates = tracer.aggregates()
    if not aggregates:
        return ""
    count_lines = _family_header("repro_span_count", "counter")
    seconds_lines = _family_header("repro_span_seconds_total", "counter")
    for name, entry in aggregates.items():
        labels = render_labels({"name": name})
        count_lines.append(
            f"repro_span_count{labels} {_format_value(float(entry.count))}"
        )
        seconds_lines.append(
            f"repro_span_seconds_total{labels} "
            f"{_format_value(entry.total_seconds)}"
        )
    evicted_lines = _family_header("tracer_spans_evicted_total", "counter")
    evicted_lines.append(
        f"tracer_spans_evicted_total {_format_value(float(tracer.evicted))}"
    )
    return (
        "\n".join(count_lines)
        + "\n"
        + "\n".join(seconds_lines)
        + "\n"
        + "\n".join(evicted_lines)
        + "\n"
    )


def render_ledger_counters(ledger: "FlightLedger") -> str:
    """The flight ledger's volume/loss accounting as counter families."""
    total_lines = _family_header("ledger_events_total", "counter")
    total_lines.append(
        f"ledger_events_total {_format_value(float(ledger.recorded))}"
    )
    evicted_lines = _family_header("ledger_events_evicted_total", "counter")
    evicted_lines.append(
        f"ledger_events_evicted_total {_format_value(float(ledger.evicted))}"
    )
    return "\n".join(total_lines) + "\n" + "\n".join(evicted_lines) + "\n"


def render_prometheus(
    families: Sequence[Family],
    tracer: "Tracer | None" = None,
    ledger: "FlightLedger | None" = None,
) -> str:
    """``families`` in Prometheus text-exposition format.

    With a ``tracer``, its cumulative span aggregates come first as
    ``repro_span_count`` / ``repro_span_seconds_total`` /
    ``tracer_spans_evicted_total`` families; with a ``ledger``, its
    volume counters follow; then ``families`` in the order given.
    Every family carries exactly one ``# HELP`` and one ``# TYPE``
    header (pinned by the :func:`parse_prometheus` round-trip test).
    """
    blocks: list[str] = []
    if tracer is not None:
        rendered = render_tracer_aggregates(tracer)
        if rendered:
            blocks.append(rendered.rstrip("\n"))
    if ledger is not None:
        blocks.append(render_ledger_counters(ledger).rstrip("\n"))
    for family in families:
        if not family.series:
            continue
        name = sanitize_metric_name(family.name)
        lines = _family_header(name, family.kind)
        for labels, value in family.series:
            if family.kind == "summary":
                lines.extend(_summary_lines(name, labels, value))
            else:
                lines.append(f"{name}{render_labels(labels)} {_format_value(value)}")
        blocks.append("\n".join(lines))
    return "\n".join(blocks) + ("\n" if blocks else "")


_SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>\S+)$"
)
_LABEL_PAIR = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _unescape_label_value(value: str) -> str:
    return (
        value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
    )


def parse_prometheus(
    text: str,
) -> dict[str, dict[str, object]]:
    """Parse a text exposition; returns family -> parsed block.

    Each family maps to ``{"type", "help", "samples"}`` where samples is
    a list of ``(metric name, labels dict, value)``.  Raises
    ``ValueError`` on conformance violations: a family with a repeated
    or missing ``# HELP``/``# TYPE`` header, a sample that belongs to no
    declared family, or an unparseable line.  This is the strict reader
    the renderer round-trips against.
    """
    families: dict[str, dict[str, object]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line:
            continue
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            keyword = line[2:6]
            rest = line[7:]
            parts = rest.split(" ", 1)
            name = parts[0]
            value = parts[1] if len(parts) > 1 else ""
            entry = families.setdefault(
                name, {"type": None, "help": None, "samples": []}
            )
            key = keyword.lower()
            if entry[key] is not None:
                raise ValueError(
                    f"line {lineno}: repeated # {keyword} for family {name!r}"
                )
            entry[key] = value
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_LINE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: unparseable sample {line!r}")
        sample_name = match.group("name")
        family = None
        for candidate in (
            sample_name,
            sample_name.removesuffix("_sum"),
            sample_name.removesuffix("_count"),
        ):
            if candidate in families:
                family = candidate
                break
        if family is None:
            raise ValueError(
                f"line {lineno}: sample {sample_name!r} precedes its "
                "family's # HELP/# TYPE headers"
            )
        labels: dict[str, str] = {}
        if match.group("labels"):
            for key, value in _LABEL_PAIR.findall(match.group("labels")):
                labels[key] = _unescape_label_value(value)
        samples = families[family]["samples"]
        assert isinstance(samples, list)
        samples.append((sample_name, labels, float(match.group("value"))))
    for name, entry in families.items():
        if entry["type"] is None:
            raise ValueError(f"family {name!r} has no # TYPE header")
        if entry["help"] is None:
            raise ValueError(f"family {name!r} has no # HELP header")
    return families


def write_prometheus(
    path: str | Path,
    families: Sequence[Family],
    tracer: "Tracer | None" = None,
    ledger: "FlightLedger | None" = None,
) -> int:
    """Write the exposition to ``path``; returns the number of lines."""
    text = render_prometheus(families, tracer, ledger)
    Path(path).write_text(text)
    return text.count("\n")
