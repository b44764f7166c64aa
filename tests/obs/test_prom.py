"""Prometheus text exposition: escaping, labels, and summary rendering."""

from __future__ import annotations

from repro.obs import Histogram, MetricsRegistry, render_prometheus, write_prometheus
from repro.obs.prom import escape_label_value, render_labels, sanitize_metric_name


class TestEscaping:
    def test_backslash_quote_and_newline(self):
        assert escape_label_value('a\\b"c\nd') == 'a\\\\b\\"c\\nd'

    def test_plain_values_unchanged(self):
        assert escape_label_value("nezha") == "nezha"

    def test_escaped_value_renders_inside_labels(self):
        rendered = render_labels({"reason": 'say "no"\nplease'})
        assert rendered == '{reason="say \\"no\\"\\nplease"}'


class TestNamesAndLabels:
    def test_legal_names_pass_through(self):
        assert sanitize_metric_name("txns_total") == "txns_total"
        assert sanitize_metric_name("ns:metric_1") == "ns:metric_1"

    def test_illegal_chars_replaced(self):
        assert sanitize_metric_name("epoch-latency.ms") == "epoch_latency_ms"

    def test_leading_digit_prefixed(self):
        assert sanitize_metric_name("9lives").startswith("_")

    def test_labels_sorted_by_key(self):
        rendered = render_labels({"z": "1", "a": "2"})
        assert rendered == '{a="2",z="1"}'

    def test_empty_labels_render_nothing(self):
        assert render_labels({}) == ""


class TestRenderRegistry:
    def test_counter_and_gauge_lines(self):
        registry = MetricsRegistry()
        registry.counter("epochs_total").inc(3)
        registry.gauge("last_epoch_index").set(2)
        text = render_prometheus(registry)
        assert "# TYPE epochs_total counter" in text
        assert "epochs_total 3" in text
        assert "# TYPE last_epoch_index gauge" in text
        assert "last_epoch_index 2" in text

    def test_labelled_series_one_line_each(self):
        registry = MetricsRegistry()
        registry.counter("aborts_total", labels={"reason": "doomed_reorder"}).inc(2)
        registry.counter(
            "aborts_total", labels={"reason": "unserializable_write"}
        ).inc(5)
        text = render_prometheus(registry)
        assert text.count("# TYPE aborts_total counter") == 1
        assert 'aborts_total{reason="doomed_reorder"} 2' in text
        assert 'aborts_total{reason="unserializable_write"} 5' in text

    def test_histogram_renders_as_summary(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("latency_seconds")
        for value in (1.0, 2.0, 3.0, 4.0):
            histogram.observe(value)
        text = render_prometheus(registry)
        assert "# TYPE latency_seconds summary" in text
        assert 'latency_seconds{quantile="0.5"}' in text
        assert 'latency_seconds{quantile="0.95"}' in text
        assert "latency_seconds_sum 10" in text
        assert "latency_seconds_count 4" in text

    def test_summary_count_is_cumulative_past_eviction(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h")
        histogram.max_samples = 2
        for value in (1.0, 2.0, 3.0):
            histogram.observe(value)
        text = render_prometheus(registry)
        # _sum/_count cover all three observations, not the retained two.
        assert "h_sum 6" in text
        assert "h_count 3" in text

    def test_empty_registry_renders_empty(self):
        assert render_prometheus(MetricsRegistry()) == ""

    def test_write_returns_line_count(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        path = tmp_path / "metrics.prom"
        lines = write_prometheus(path, registry)
        content = path.read_text()
        # One # HELP line, one # TYPE line, one sample line.
        assert lines == content.count("\n") == 3
        assert content.endswith("c 1\n")


class TestHistogramFix:
    """Satellite 1: O(1) total/mean plus cumulative observed_* fields."""

    def test_total_and_mean_track_retained_samples(self):
        histogram = Histogram(max_samples=3)
        for value in (1.0, 2.0, 3.0):
            histogram.observe(value)
        assert histogram.total == 6.0
        assert histogram.mean == 2.0
        histogram.observe(10.0)  # evicts 1.0
        assert histogram.samples == [2.0, 3.0, 10.0]
        assert histogram.total == 15.0
        assert histogram.mean == 5.0

    def test_observed_fields_never_reset(self):
        histogram = Histogram(max_samples=2)
        for value in range(10):
            histogram.observe(float(value))
        assert histogram.observed_count == 10
        assert histogram.observed_sum == sum(range(10))
        assert histogram.count == 2

    def test_summary_matches_legacy_shape(self):
        histogram = Histogram()
        for value in (1.0, 2.0, 3.0, 4.0):
            histogram.observe(value)
        summary = histogram.summary()
        assert set(summary) == {"count", "mean", "p50", "p95", "max"}
        assert summary["count"] == 4.0
        assert summary["mean"] == 2.5
        assert summary["max"] == 4.0


class TestTracerAggregateExport:
    def test_span_totals_render_as_counter_families(self):
        from repro.obs import Tracer

        tracer = Tracer()
        with tracer.span("engine.speculate"):
            pass
        with tracer.span("engine.speculate"):
            pass
        registry = MetricsRegistry()
        registry.gauge("plain").set(1.0)
        text = render_prometheus(registry, tracer)
        assert "# TYPE repro_span_count counter" in text
        assert 'repro_span_count{name="engine.speculate"} 2' in text
        assert "# TYPE repro_span_seconds_total counter" in text
        assert 'repro_span_seconds_total{name="engine.speculate"}' in text
        assert "plain 1" in text

    def test_totals_outlive_ring_eviction(self):
        from repro.obs import Tracer

        tracer = Tracer(max_spans=2)
        for _ in range(25):
            with tracer.span("evicted.name"):
                pass
        text = render_prometheus(MetricsRegistry(), tracer)
        assert 'repro_span_count{name="evicted.name"} 25' in text

    def test_no_tracer_keeps_output_unchanged(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        assert render_prometheus(registry) == render_prometheus(registry, None)


class TestConformance:
    """Satellite invariant: every family carries exactly one # HELP and
    one # TYPE header, pinned by a renderer -> parser round trip."""

    def _full_exposition(self):
        from repro.obs import FlightLedger, Tracer

        registry = MetricsRegistry()
        registry.counter("epochs_total").inc(3)
        registry.counter("aborts_total", labels={"reason": "doomed_reorder"}).inc(2)
        registry.counter(
            "aborts_total", labels={"reason": "unserializable_write"}
        ).inc(5)
        registry.gauge("last_epoch_index").set(7)
        registry.histogram("epoch_latency_seconds").observe(0.25)
        registry.histogram("epoch_latency_seconds").observe(0.75)
        tracer = Tracer()
        with tracer.span("pipeline.epoch"):
            pass
        ledger = FlightLedger(max_events=2)
        for txid in range(5):
            ledger.record(0, txid, "ingest")
        return render_prometheus(registry, tracer, ledger)

    def test_round_trip_accepts_full_exposition(self):
        from repro.obs import parse_prometheus

        text = self._full_exposition()
        families = parse_prometheus(text)
        expected = {
            "epochs_total",
            "aborts_total",
            "last_epoch_index",
            "epoch_latency_seconds",
            "repro_span_count",
            "repro_span_seconds_total",
            "tracer_spans_evicted_total",
            "ledger_events_total",
            "ledger_events_evicted_total",
        }
        assert expected <= set(families)
        for name, family in families.items():
            assert family["type"], name
            assert family["help"], name
            assert family["samples"], name

    def test_each_family_headered_exactly_once(self):
        text = self._full_exposition()
        for name in ("aborts_total", "ledger_events_total", "repro_span_count"):
            assert text.count(f"# HELP {name} ") == 1
            assert text.count(f"# TYPE {name} ") == 1

    def test_ledger_counters_truthful(self):
        from repro.obs import FlightLedger, parse_prometheus

        ledger = FlightLedger(max_events=2)
        for txid in range(5):
            ledger.record(0, txid, "ingest")
        families = parse_prometheus(render_prometheus(MetricsRegistry(), ledger=ledger))
        total = families["ledger_events_total"]["samples"][0]
        evicted = families["ledger_events_evicted_total"]["samples"][0]
        assert total[2] == 5.0
        assert evicted[2] == 3.0

    def test_summary_samples_attributed_to_family(self):
        from repro.obs import parse_prometheus

        registry = MetricsRegistry()
        registry.histogram("latency_seconds").observe(1.0)
        families = parse_prometheus(render_prometheus(registry))
        names = [s[0] for s in families["latency_seconds"]["samples"]]
        assert "latency_seconds_sum" in names
        assert "latency_seconds_count" in names

    def test_parser_rejects_repeated_help(self):
        import pytest

        from repro.obs import parse_prometheus

        text = (
            "# HELP m m\n# TYPE m counter\n# HELP m again\nm 1\n"
        )
        with pytest.raises(ValueError, match="repeated"):
            parse_prometheus(text)

    def test_parser_rejects_orphan_sample(self):
        import pytest

        from repro.obs import parse_prometheus

        with pytest.raises(ValueError, match="precedes"):
            parse_prometheus("orphan_metric 3\n")

    def test_parser_rejects_headerless_family(self):
        import pytest

        from repro.obs import parse_prometheus

        with pytest.raises(ValueError, match="no # TYPE"):
            parse_prometheus("# HELP m m\nm 1\n")
        with pytest.raises(ValueError, match="no # HELP"):
            parse_prometheus("# TYPE m counter\nm 1\n")

    def test_parser_unescapes_label_values(self):
        from repro.obs import parse_prometheus

        registry = MetricsRegistry()
        registry.counter("c", labels={"reason": 'say "no"\nplease'}).inc()
        families = parse_prometheus(render_prometheus(registry))
        _, labels, _ = families["c"]["samples"][0]
        assert labels["reason"] == 'say "no"\nplease'
