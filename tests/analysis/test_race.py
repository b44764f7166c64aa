"""Tests for the vector-clock concurrency sanitizer.

Covers the detector's happens-before semantics (locks, fork/join edges,
the relaxed-access memory model), the module-level hook plumbing, and
the headline acceptance check: a sanitizer-enabled streaming cluster run
reports zero races.
"""

from __future__ import annotations

import threading

import pytest

from repro.analysis import race
from repro.analysis.race import RaceDetector


def run_threads(*targets):
    # All workers rendezvous before doing any work so every thread is
    # alive simultaneously — otherwise a fast first thread can exit and
    # the OS recycles its ident, making two logically-concurrent
    # accesses look same-thread to the detector.
    barrier = threading.Barrier(len(targets))

    def wrap(fn):
        def run():
            barrier.wait()
            fn()

        return run

    threads = [threading.Thread(target=wrap(t)) for t in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


@pytest.fixture(autouse=True)
def race_detector():
    """Each test controls the global detector explicitly (this overrides
    the suite-wide sanitizer fixture) and leaves it as it found it."""
    found = race.active()
    race.disable()
    yield
    race.disable()
    if found is not None:
        race.enable(found)


class TestDetectorSemantics:
    def test_unsynchronized_writes_race(self):
        detector = RaceDetector()
        run_threads(
            lambda: detector.write("counter"),
            lambda: detector.write("counter"),
        )
        findings = detector.report()
        assert len(findings) == 1
        assert findings[0].location == "counter"
        assert findings[0].severity == "error"
        assert "RACE on counter" in findings[0].render()

    def test_read_write_race(self):
        detector = RaceDetector()
        done = threading.Event()

        def writer():
            detector.write("x")
            done.set()

        def reader():
            done.wait()
            detector.read("x")

        run_threads(writer, reader)
        # No happens-before edge was modelled (the Event is invisible to
        # the detector), so the read races with the write.
        assert detector.report()

    def test_read_read_never_races(self):
        detector = RaceDetector()
        run_threads(
            lambda: detector.read("x"),
            lambda: detector.read("x"),
        )
        assert detector.report() == []

    def test_lock_edges_order_accesses(self):
        detector = RaceDetector()
        lock = threading.Lock()

        def worker():
            with lock:
                detector.acquire("lock")
                detector.write("counter")
                detector.release("lock")

        run_threads(worker, worker)
        assert detector.report() == []

    def test_fork_join_edges_order_accesses(self):
        detector = RaceDetector()
        detector.write("shared")
        detector.hb_release("submit")

        def worker():
            detector.hb_acquire("submit")
            detector.write("shared")
            detector.hb_release("done")

        run_threads(worker)
        detector.hb_acquire("done")
        detector.read("shared")
        assert detector.report() == []

    def test_relaxed_pair_is_waived(self):
        detector = RaceDetector()
        run_threads(
            lambda: detector.write("flat", relaxed=True),
            lambda: detector.read("flat", relaxed=True),
        )
        assert detector.report() == []
        assert detector.summary()["relaxed_accesses"] == 2

    def test_relaxed_against_plain_still_races(self):
        detector = RaceDetector()
        run_threads(
            lambda: detector.write("flat", relaxed=True),
            lambda: detector.read("flat"),
        )
        assert detector.report()

    def test_same_thread_never_races(self):
        detector = RaceDetector()
        detector.write("x")
        detector.read("x")
        detector.write("x")
        assert detector.report() == []

    def test_findings_deduplicated(self):
        detector = RaceDetector()

        def hammer():
            for _ in range(20):
                detector.write("hot")

        run_threads(hammer, hammer)
        summary = detector.summary()
        assert not summary["ok"]
        assert len(summary["races"]) == 1

    def test_summary_shape(self):
        detector = RaceDetector()
        detector.write(("tuple", 1, "key"))
        summary = detector.summary()
        assert summary["report"] == "race-sanitizer"
        assert summary["ok"] is True
        assert summary["accesses"] == 1
        assert summary["locations"] == 1


class TestModuleHooks:
    def test_hooks_are_noops_when_disabled(self):
        assert race.active() is None
        race.trace_write("x")
        race.trace_read("x")
        race.lock_acquired("l")
        race.lock_released("l")
        race.hb_release("h")
        race.hb_acquire("h")

    def test_enable_routes_hooks_to_detector(self):
        detector = race.enable()
        assert race.active() is detector
        race.trace_write("x")
        assert detector.summary()["accesses"] == 1
        race.disable()
        race.trace_write("x")
        assert detector.summary()["accesses"] == 1

    def test_env_enablement(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        race._maybe_enable_from_env()
        assert race.active() is not None
        race.disable()
        monkeypatch.setenv("REPRO_SANITIZE", "")
        race._maybe_enable_from_env()
        assert race.active() is None


class TestInstrumentedRun:
    """Acceptance: sanitizer-enabled streaming runs report zero races."""

    @pytest.mark.parametrize("delta_cc", [False, True])
    def test_streaming_cluster_is_race_free(self, delta_cc):
        from repro.net import Cluster, ClusterConfig, NodeSpec
        from repro.node import PipelineConfig
        from repro.obs.tracer import Tracer
        from repro.workload import SmallBankConfig

        detector = race.enable()
        try:
            spec = NodeSpec(
                chain_count=4,
                workload=SmallBankConfig(account_count=150, skew=0.8, seed=5),
                pipeline=PipelineConfig(delta_cc=delta_cc, streaming=True),
            )
            config = ClusterConfig(block_size=30)
            with Cluster(spec, config, tracer=Tracer()) as cluster:
                cluster.run_epochs(3)
        finally:
            race.disable()
        summary = detector.summary()
        assert summary["accesses"] > 0
        assert summary["ok"], summary["races"]

    def test_lsm_compaction_is_race_free(self, tmp_path):
        from repro.storage.lsm import LSMStore

        detector = race.enable()
        try:
            store = LSMStore(
                tmp_path / "db",
                flush_bytes=256,
                background_compaction=True,
            )
            for i in range(300):
                store.put(f"k{i:04d}".encode(), f"v{i}".encode())
            store.wait_compaction()
            for i in range(0, 300, 7):
                assert store.get(f"k{i:04d}".encode()) == f"v{i}".encode()
            store.close()
        finally:
            race.disable()
        summary = detector.summary()
        assert summary["ok"], summary["races"]
