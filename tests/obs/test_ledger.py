"""Flight-ledger unit tests: ring, export, validation, digest, analysis."""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    FlightLedger,
    aggregate_contention,
    delta_promotion_candidates,
    estimate_skew,
    iter_timeline,
    read_jsonl,
    timeline_digest,
    validate_ledger,
)
from repro.obs.ledger import SCHEMA


def abort(epoch, txid, reason="unserializable_write", edges=()):
    return {
        "epoch": epoch,
        "txid": txid,
        "kind": "abort",
        "reason": reason,
        "edges": [list(edge) for edge in edges],
    }


class TestRing:
    def test_record_and_snapshot(self):
        ledger = FlightLedger()
        ledger.record(0, 1, "ingest", block="abc")
        ledger.record(0, 1, "execute", ok=True)
        assert len(ledger) == 2
        assert ledger.recorded == 2
        assert ledger.evicted == 0
        assert [e["kind"] for e in ledger.events()] == ["ingest", "execute"]

    def test_eviction_counts_and_keeps_newest(self):
        ledger = FlightLedger(max_events=3)
        for txid in range(5):
            ledger.record(0, txid, "ingest")
        assert len(ledger) == 3
        assert ledger.recorded == 5
        assert ledger.evicted == 2
        assert [e["txid"] for e in ledger.events()] == [2, 3, 4]

    def test_record_many_single_batch(self):
        ledger = FlightLedger()
        ledger.record_many(
            {"epoch": 0, "txid": t, "kind": "execute", "ok": True}
            for t in range(10)
        )
        assert ledger.recorded == 10

    def test_events_for_filters_by_txid(self):
        ledger = FlightLedger()
        ledger.record(0, 1, "ingest")
        ledger.record(0, 2, "ingest")
        ledger.record(1, 1, "commit", group=3)
        assert [e["epoch"] for e in ledger.events_for(1)] == [0, 1]

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            FlightLedger(max_events=0)

    def test_contention_aggregates_the_retained_events(self):
        ledger = FlightLedger(max_events=2)
        for txid in range(6):
            ledger.record_many(
                [abort(0, txid, edges=[(txid + 1, "hot", "ww")])]
            )
        # Only two abort events remain in the ring, and the contention
        # table is built from them; ``evicted`` says four were lost.
        assert len(ledger) == 2
        assert ledger.evicted == 4
        table = aggregate_contention(ledger.events())
        assert table["hot"]["aborts"] == 2
        assert table["hot"]["kinds"] == {"ww": 2}


class TestExport:
    def test_jsonl_round_trip(self, tmp_path):
        ledger = FlightLedger()
        ledger.record(0, 7, "ingest", block="abc")
        ledger.record_many([abort(0, 7, edges=[(3, "x", "rw")])])
        path = tmp_path / "ledger.jsonl"
        lines = ledger.write_jsonl(path)
        assert lines == 3  # meta + 2 events
        meta, events = read_jsonl(path)
        assert meta["schema"] == SCHEMA
        assert meta["events"] == 2
        assert meta["recorded"] == 2
        assert meta["evicted"] == 0
        assert events[1]["edges"] == [[3, "x", "rw"]]

    def test_read_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "not-a-ledger.jsonl"
        path.write_text('{"schema": "something-else"}\n')
        with pytest.raises(ValueError):
            read_jsonl(path)
        path.write_text("")
        with pytest.raises(ValueError):
            read_jsonl(path)

    def test_validate_clean_ledger(self, tmp_path):
        ledger = FlightLedger()
        ledger.record(0, 1, "ingest")
        ledger.record(0, 1, "execute", ok=True)
        ledger.record(0, 1, "schedule", seq=4, reordered=False, revived=False)
        ledger.record(0, 1, "commit", group=4)
        ledger.record_many([abort(0, 2, edges=[(1, "x", "rw")])])
        path = tmp_path / "ok.jsonl"
        ledger.write_jsonl(path)
        assert validate_ledger(path) == []

    def test_validate_flags_schema_violations(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        events = [
            {"schema": SCHEMA, "events": 5, "recorded": 5, "evicted": 0},
            {"epoch": -1, "txid": 1, "kind": "ingest"},
            {"epoch": 0, "txid": 2, "kind": "teleport"},
            {"epoch": 0, "txid": 3, "kind": "schedule"},
            {"epoch": 0, "txid": 4, "kind": "abort", "reason": "bogus"},
            # The attribution invariant: a hard abort with no edge.
            {
                "epoch": 0,
                "txid": 5,
                "kind": "abort",
                "reason": "unserializable_write",
                "edges": [],
            },
        ]
        path.write_text("\n".join(json.dumps(e) for e in events) + "\n")
        problems = validate_ledger(path)
        assert any("bad epoch" in p for p in problems)
        assert any("teleport" in p for p in problems)
        assert any("without integer seq" in p for p in problems)
        assert any("bogus" in p for p in problems)
        assert any("no attributed edge" in p for p in problems)

    def test_validate_flags_malformed_edges(self, tmp_path):
        path = tmp_path / "edges.jsonl"
        events = [
            {"schema": SCHEMA, "events": 1, "recorded": 1, "evicted": 0},
            abort(0, 1, edges=[("notint", "x", "rw"), (2, "y", "nope")]),
        ]
        path.write_text("\n".join(json.dumps(e) for e in events) + "\n")
        problems = validate_ledger(path)
        assert sum("malformed edge" in p for p in problems) == 2


class TestDigest:
    def test_insensitive_to_arrival_order(self):
        events = [
            {"epoch": 0, "txid": 2, "kind": "execute", "ok": True},
            {"epoch": 0, "txid": 1, "kind": "commit", "group": 3},
            {"epoch": 0, "txid": 1, "kind": "execute", "ok": True},
        ]
        assert timeline_digest(events) == timeline_digest(list(reversed(events)))

    def test_excludes_streaming_only_kinds(self):
        stable = [{"epoch": 0, "txid": 1, "kind": "execute", "ok": True}]
        streamed = stable + [
            {"epoch": 0, "txid": 1, "kind": "speculate", "ok": True},
            {"epoch": 0, "txid": 1, "kind": "reconcile", "outcome": "kept"},
        ]
        assert timeline_digest(stable) == timeline_digest(streamed)

    def test_sensitive_to_content(self):
        a = [{"epoch": 0, "txid": 1, "kind": "execute", "ok": True}]
        b = [{"epoch": 0, "txid": 1, "kind": "execute", "ok": False}]
        assert timeline_digest(a) != timeline_digest(b)

    def test_per_txn_digest_filters(self):
        events = [
            {"epoch": 0, "txid": 1, "kind": "execute", "ok": True},
            {"epoch": 0, "txid": 2, "kind": "execute", "ok": True},
        ]
        assert timeline_digest(events, txid=1) == timeline_digest(events[:1])


class TestTimeline:
    def test_stage_order_within_epoch(self):
        events = [
            {"epoch": 0, "txid": 1, "kind": "commit", "group": 2},
            {"epoch": 0, "txid": 1, "kind": "ingest"},
            {"epoch": 0, "txid": 1, "kind": "speculate", "ok": True},
            {"epoch": 0, "txid": 1, "kind": "execute", "ok": True},
            {"epoch": 0, "txid": 2, "kind": "ingest"},
        ]
        kinds = [e["kind"] for e in iter_timeline(events, 1)]
        assert kinds == ["ingest", "speculate", "execute", "commit"]


class TestContentionAnalysis:
    def test_aggregates_mass_kinds_victims_peers(self):
        events = [
            abort(0, 1, edges=[(2, "hot", "rw")]),
            abort(0, 3, edges=[(2, "hot", "ww")]),
            abort(1, 4, edges=[(-1, "hot", "ww"), (5, "cold", "wd")]),
        ]
        table = aggregate_contention(events)
        assert table["hot"]["aborts"] == 3
        assert table["hot"]["kinds"] == {"rw": 1, "ww": 2}
        assert table["hot"]["victims"] == {1, 3, 4}
        # UNKNOWN_PEER never lands in the peer set.
        assert table["hot"]["peers"] == {2}
        assert table["cold"]["aborts"] == 1

    def test_promotion_wants_ww_majority(self):
        events = (
            [abort(0, t, edges=[(9, "wwheavy", "ww")]) for t in range(5)]
            + [abort(0, 50, edges=[(9, "wwheavy", "rw")])]
            + [abort(0, t, edges=[(9, "rwheavy", "rw")]) for t in range(60, 64)]
        )
        table = aggregate_contention(events)
        assert delta_promotion_candidates(table) == ["wwheavy"]

    def test_skew_estimate_needs_three_points(self):
        assert estimate_skew([10, 5]) is None
        assert estimate_skew([]) is None

    def test_skew_estimate_recovers_power_law(self):
        # mass(rank) = 1000 / rank^1.0 -> slope ~ -1, estimate ~ 1.
        masses = [round(1000 / rank) for rank in range(1, 30)]
        estimate = estimate_skew(masses)
        assert estimate == pytest.approx(1.0, abs=0.1)

    def test_uniform_masses_estimate_near_zero(self):
        estimate = estimate_skew([7] * 20)
        assert estimate == pytest.approx(0.0, abs=1e-9)
