"""Live /metrics + /healthz endpoint over an ephemeral port."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.node.phases import EpochReport
from repro.obs import (
    FlightLedger,
    MetricsEndpoint,
    Tracer,
    node_families,
    parse_prometheus,
    render_prometheus,
)


def report(epoch_index):
    # epoch, scheme, chains, input, committed, aborted, failed, root
    return EpochReport(epoch_index, "nezha", 2, 10, 8, 2, 0, b"")


def fetch(url: str):
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.status, response.headers, response.read().decode()


@pytest.fixture()
def served():
    reports = [report(0), report(1)]
    tracer = Tracer()
    with tracer.span("pipeline.epoch"):
        pass
    ledger = FlightLedger()
    ledger.record(0, 1, "ingest")

    def render():
        return render_prometheus(node_families(list(reports)), tracer, ledger)

    endpoint = MetricsEndpoint(render, health=lambda: {"epochs_processed": 2}, port=0)
    with endpoint:
        yield endpoint, reports


class TestEndpoint:
    def test_port_zero_binds_ephemeral(self, served):
        endpoint, _ = served
        assert endpoint.port != 0
        assert str(endpoint.port) in endpoint.url

    def test_metrics_round_trips_through_parser(self, served):
        endpoint, _ = served
        status, headers, body = fetch(endpoint.url + "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
        families = parse_prometheus(body)
        assert "epochs_total" in families
        assert "repro_span_count" in families
        assert "ledger_events_total" in families

    def test_metrics_reflect_live_updates(self, served):
        endpoint, reports = served
        reports += [report(2), report(3), report(4)]
        _, _, body = fetch(endpoint.url + "/metrics")
        samples = parse_prometheus(body)["epochs_total"]["samples"]
        assert samples[0][2] == 5.0

    def test_healthz_merges_health_callable(self, served):
        endpoint, _ = served
        status, headers, body = fetch(endpoint.url + "/healthz")
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        payload = json.loads(body)
        assert payload == {"status": "ok", "epochs_processed": 2}

    def test_unknown_path_404s(self, served):
        endpoint, _ = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            fetch(endpoint.url + "/nope")
        assert excinfo.value.code == 404

    def test_degraded_health_reported(self):
        def broken():
            raise RuntimeError("state unavailable")

        with MetricsEndpoint(lambda: "", port=0, health=broken) as endpoint:
            _, _, body = fetch(endpoint.url + "/healthz")
        payload = json.loads(body)
        assert payload["status"] == "degraded"
        assert "state unavailable" in payload["error"]

    def test_stop_is_idempotent_and_releases_port(self):
        endpoint = MetricsEndpoint(lambda: "", port=0).start()
        url = endpoint.url
        endpoint.stop()
        endpoint.stop()
        with pytest.raises(urllib.error.URLError):
            fetch(url + "/metrics")

    def test_start_twice_is_a_no_op(self):
        endpoint = MetricsEndpoint(lambda: "", port=0)
        try:
            first = endpoint.start()
            port = endpoint.port
            assert endpoint.start() is first
            assert endpoint.port == port
        finally:
            endpoint.stop()
