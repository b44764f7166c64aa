"""Prometheus text exposition: escaping, labels, and summary rendering."""

from __future__ import annotations

import gc

from repro.obs import collector_family, parse_prometheus, render_prometheus, write_prometheus
from repro.obs.prom import Family, escape_label_value, render_labels, sanitize_metric_name


def single(name, kind, value):
    return Family(name, kind, [({}, value)])


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


ABORTS = Family(
    "aborts_total",
    "counter",
    [({"reason": "doomed_reorder"}, 2), ({"reason": "unserializable_write"}, 5)],
)


class TestRenderRegistry:
    def test_counter_and_gauge_lines(self):
        text = render_prometheus(
            [single("epochs_total", "counter", 3), single("last_epoch_index", "gauge", 2)]
        )
        assert "# TYPE epochs_total counter" in text
        assert "epochs_total 3" in text
        assert "# TYPE last_epoch_index gauge" in text
        assert "last_epoch_index 2" in text

    def test_labelled_series_one_line_each(self):
        text = render_prometheus([ABORTS])
        assert text.count("# TYPE aborts_total counter") == 1
        assert 'aborts_total{reason="doomed_reorder"} 2' in text
        assert 'aborts_total{reason="unserializable_write"} 5' in text

    def test_histogram_renders_as_summary(self):
        text = render_prometheus([single("latency_seconds", "summary", [1.0, 2.0, 3.0, 4.0])])
        assert "# TYPE latency_seconds summary" in text
        assert 'latency_seconds{quantile="0.5"}' in text
        assert 'latency_seconds{quantile="0.95"}' in text
        assert "latency_seconds_sum 10" in text
        assert "latency_seconds_count 4" in text

    def test_summary_covers_every_observation(self):
        text = render_prometheus([single("h", "summary", [3.0, 1.0, 2.0])])
        # Quantiles, _sum and _count all read every observation.
        assert 'h{quantile="0.5"} 2' in text
        assert "h_sum 6" in text
        assert "h_count 3" in text

    def test_empty_registry_renders_empty(self):
        assert render_prometheus([]) == ""
        # A family without series renders no headers either.
        assert render_prometheus([Family("c", "counter", [])]) == ""

    def test_write_returns_line_count(self, tmp_path):
        path = tmp_path / "metrics.prom"
        lines = write_prometheus(path, [single("c", "counter", 1)])
        content = path.read_text()
        # One # HELP line, one # TYPE line, one sample line.
        assert lines == content.count("\n") == 3
        assert content.endswith("c 1\n")


class TestTracerAggregateExport:
    def test_span_totals_render_as_counter_families(self):
        from repro.obs import Tracer

        tracer = Tracer()
        with tracer.span("engine.speculate"):
            pass
        with tracer.span("engine.speculate"):
            pass
        text = render_prometheus([single("plain", "gauge", 1.0)], tracer)
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
        text = render_prometheus([], tracer)
        assert 'repro_span_count{name="evicted.name"} 25' in text

    def test_no_tracer_keeps_output_unchanged(self):
        families = [single("c", "counter", 1)]
        assert render_prometheus(families) == render_prometheus(families, None)


class TestCollectorFamily:
    def _counts(self) -> dict[str, float]:
        family = parse_prometheus(render_prometheus([collector_family()]))[
            "gc_collections_total"
        ]
        assert family["type"] == "counter"
        return {labels["generation"]: value for _, labels, value in family["samples"]}

    def test_one_series_per_generation(self):
        assert sorted(self._counts()) == [str(g) for g in range(len(gc.get_stats()))]

    def test_counts_do_not_decrease_between_renders(self):
        first = self._counts()
        gc.collect(0)
        second = self._counts()
        assert all(second[g] >= first[g] for g in first)
        assert second["0"] > first["0"]


class TestConformance:
    """Satellite invariant: every family carries exactly one # HELP and
    one # TYPE header, pinned by a renderer -> parser round trip."""

    def _full_exposition(self):
        from repro.obs import FlightLedger, Tracer

        families = [
            ABORTS,
            single("epoch_latency_seconds", "summary", [0.25, 0.75]),
            single("epochs_total", "counter", 3),
            single("last_epoch_index", "gauge", 7),
        ]
        tracer = Tracer()
        with tracer.span("pipeline.epoch"):
            pass
        ledger = FlightLedger(max_events=2)
        for txid in range(5):
            ledger.record(0, txid, "ingest")
        return render_prometheus(families, tracer, ledger)

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
        families = parse_prometheus(render_prometheus([], ledger=ledger))
        total = families["ledger_events_total"]["samples"][0]
        evicted = families["ledger_events_evicted_total"]["samples"][0]
        assert total[2] == 5.0
        assert evicted[2] == 3.0

    def test_summary_samples_attributed_to_family(self):
        from repro.obs import parse_prometheus

        families = parse_prometheus(
            render_prometheus([single("latency_seconds", "summary", [1.0])])
        )
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

        families = parse_prometheus(
            render_prometheus(
                [Family("c", "counter", [({"reason": 'say "no"\nplease'}, 1)])]
            )
        )
        _, labels, _ = families["c"]["samples"][0]
        assert labels["reason"] == 'say "no"\nplease'
