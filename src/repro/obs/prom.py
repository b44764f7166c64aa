"""Prometheus text-exposition rendering of a :class:`MetricsRegistry`.

The node's registry was write-only — nothing ever exported it.  This
module renders it in the Prometheus text exposition format (version
0.0.4): exactly one ``# HELP`` and one ``# TYPE`` header per metric
family, one sample line per label set, with label values escaped per the
spec (backslash, double quote, and newline).  Histograms export as
Prometheus *summaries* — quantiles over the retained sample ring plus
cumulative ``_sum`` and ``_count`` over every observation ever made.

Written via ``--metrics-out`` on the CLI, served live by the
``--metrics-port`` endpoint (:mod:`repro.obs.endpoint`), or however the
caller likes — the renderer is just registry -> text.
:func:`parse_prometheus` is the conformance half: a small exposition
parser the round-trip test pins the renderer against (every family
headered exactly once, every sample attributable to a declared family).
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Mapping

from repro.analysis.metrics import percentile
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry

if TYPE_CHECKING:
    from repro.obs.ledger import FlightLedger
    from repro.obs.tracer import Tracer

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_NAME_BAD_CHARS = re.compile(r"[^a-zA-Z0-9_:]")

_SUMMARY_QUANTILES = (0.5, 0.95, 0.99)


def sanitize_metric_name(name: str) -> str:
    """Coerce a registry name into a legal Prometheus metric name."""
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
    name: str, labels: Mapping[str, str], histogram: "Histogram"
) -> list[str]:
    ordered = sorted(histogram.samples)
    lines = []
    for quantile in _SUMMARY_QUANTILES:
        merged = dict(labels)
        merged["quantile"] = str(quantile)
        lines.append(
            f"{name}{render_labels(merged)} {_format_value(percentile(ordered, quantile))}"
        )
    suffix = render_labels(labels)
    lines.append(f"{name}_sum{suffix} {_format_value(histogram.observed_sum)}")
    lines.append(f"{name}_count{suffix} {_format_value(float(histogram.observed_count))}")
    return lines


_HELP_TEXT = {
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
    registry: "MetricsRegistry",
    tracer: "Tracer | None" = None,
    ledger: "FlightLedger | None" = None,
) -> str:
    """The whole registry in Prometheus text-exposition format.

    With a ``tracer``, its cumulative span aggregates are appended as
    ``repro_span_count`` / ``repro_span_seconds_total`` /
    ``tracer_spans_evicted_total`` families; with a ``ledger``, its
    volume counters follow.  Every family carries exactly one ``# HELP``
    and one ``# TYPE`` header (pinned by the :func:`parse_prometheus`
    round-trip test).
    """
    blocks: list[str] = []
    if tracer is not None:
        rendered = render_tracer_aggregates(tracer)
        if rendered:
            blocks.append(rendered.rstrip("\n"))
    if ledger is not None:
        blocks.append(render_ledger_counters(ledger).rstrip("\n"))
    for name, kind, samples in registry.families():
        metric_name = sanitize_metric_name(name)
        if kind is Counter:
            type_name = "counter"
        elif kind is Gauge:
            type_name = "gauge"
        elif kind is Histogram:
            type_name = "summary"
        else:  # pragma: no cover - registry only holds the three kinds
            continue
        lines = _family_header(metric_name, type_name)
        for labels, metric in samples:
            if isinstance(metric, Histogram):
                lines.extend(_summary_lines(metric_name, labels, metric))
            else:
                lines.append(
                    f"{metric_name}{render_labels(labels)} {_format_value(metric.value)}"
                )
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
    path: str,
    registry: "MetricsRegistry",
    tracer: "Tracer | None" = None,
    ledger: "FlightLedger | None" = None,
) -> int:
    """Write the exposition to ``path``; returns the number of lines."""
    text = render_prometheus(registry, tracer, ledger)
    from pathlib import Path

    Path(path).write_text(text)
    return text.count("\n")
