"""Observability: structured tracing, metrics, exporters, the abort taxonomy.

Dependency-free by design — every other layer (core, node, net) imports
from here, so nothing in this package may import from them at module
scope (``prom.node_families`` type-checks against
``repro.node.phases.EpochReport`` under ``TYPE_CHECKING`` only).
"""

from repro.obs.endpoint import MetricsEndpoint
from repro.obs.export import (
    chrome_trace,
    render_top,
    summarize_events,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.ledger import (
    EVENT_KINDS,
    FlightLedger,
    aggregate_contention,
    delta_promotion_candidates,
    estimate_skew,
    iter_timeline,
    read_jsonl,
    timeline_digest,
    validate_ledger,
)
from repro.obs.prom import (
    collector_family,
    node_families,
    parse_prometheus,
    render_ledger_counters,
    render_prometheus,
    render_tracer_aggregates,
    write_prometheus,
)
from repro.obs.taxonomy import (
    ABORT_REASONS,
    DELTA_OVERFLOW,
    DOOMED_REORDER,
    EDGE_DELTA_GUARD,
    EDGE_KINDS,
    EDGE_RD,
    EDGE_RW,
    EDGE_WD,
    EDGE_WW,
    SCHEME_CONFLICT,
    UNKNOWN_PEER,
    UNSERIALIZABLE_WRITE,
    taxonomy_counts,
)
from repro.obs.tracer import Span, SpanAggregate, Tracer, maybe_span

__all__ = [
    "ABORT_REASONS",
    "DELTA_OVERFLOW",
    "DOOMED_REORDER",
    "EDGE_DELTA_GUARD",
    "EDGE_KINDS",
    "EDGE_RD",
    "EDGE_RW",
    "EDGE_WD",
    "EDGE_WW",
    "EVENT_KINDS",
    "FlightLedger",
    "MetricsEndpoint",
    "SCHEME_CONFLICT",
    "Span",
    "SpanAggregate",
    "Tracer",
    "UNKNOWN_PEER",
    "UNSERIALIZABLE_WRITE",
    "aggregate_contention",
    "chrome_trace",
    "collector_family",
    "delta_promotion_candidates",
    "estimate_skew",
    "iter_timeline",
    "maybe_span",
    "node_families",
    "parse_prometheus",
    "read_jsonl",
    "render_ledger_counters",
    "render_prometheus",
    "render_top",
    "render_tracer_aggregates",
    "summarize_events",
    "taxonomy_counts",
    "timeline_digest",
    "validate_chrome_trace",
    "validate_ledger",
    "write_chrome_trace",
    "write_prometheus",
]
