"""Flight-ledger integration: causal lifecycle recorded by the pipeline.

Every transaction a node ingests must leave a complete causal trail —
ingest, execute, schedule, commit/abort — and every hard abort
(``unserializable_write``, ``delta_overflow``) must carry at least one
attributed conflict edge.  The stable-kind timeline digest is identical
between barrier and streaming nodes: speculation only changes *when*
events are emitted, never the committed lifecycle.
"""

from __future__ import annotations

import pytest

from repro.core import NezhaScheduler
from repro.dag import EpochCoordinator, Mempool, ParallelChains, PoWParams
from repro.node import FullNode, PipelineConfig
from repro.obs import FlightLedger, timeline_digest
from repro.obs.taxonomy import (
    ABORT_REASONS,
    DELTA_OVERFLOW,
    EDGE_KINDS,
    UNSERIALIZABLE_WRITE,
)
from repro.state import StateDB
from repro.vm.contracts import default_registry
from repro.workload import SmallBankConfig, SmallBankWorkload, initial_state

EPOCHS = 3
CHAINS = 3
BLOCK_SIZE = 40
POW = PoWParams(6)
# Hot workload so the CC layer actually aborts and attributes edges.
WORKLOAD = SmallBankConfig(account_count=120, skew=0.95, seed=11)

_MINED_CACHE: dict[bool, list] = {}


def _fresh_state():
    state = StateDB()
    state.seed(initial_state(WORKLOAD))
    return state


def _make_node(streaming: bool, delta_cc: bool, ledger: FlightLedger) -> FullNode:
    return FullNode(
        chains=ParallelChains(chain_count=CHAINS, pow_params=POW),
        state=_fresh_state(),
        scheduler=NezhaScheduler(),
        registry=default_registry(include_bytecode=delta_cc),
        config=PipelineConfig(streaming=streaming, delta_cc=delta_cc),
        ledger=ledger,
    )


def _mine(delta_cc: bool) -> list:
    if delta_cc in _MINED_CACHE:
        return _MINED_CACHE[delta_cc]
    coordinator = EpochCoordinator(
        chains=ParallelChains(chain_count=CHAINS, pow_params=POW),
        miners=["m0"],
        block_size=BLOCK_SIZE,
    )
    mempool = Mempool()
    mempool.submit_many(
        SmallBankWorkload(WORKLOAD).generate(EPOCHS * CHAINS * BLOCK_SIZE + 60)
    )
    probe = _make_node(False, delta_cc, FlightLedger())
    epochs = []
    root = probe.state_root
    with probe:
        for _ in range(EPOCHS):
            blocks = coordinator.mine_epoch(mempool, state_root=root)
            epochs.append(blocks)
            root = probe.receive_epoch(blocks).state_root
    _MINED_CACHE[delta_cc] = epochs
    return epochs


def _run(streaming: bool, delta_cc: bool):
    ledger = FlightLedger()
    with _make_node(streaming, delta_cc, ledger) as node:
        reports = [node.receive_epoch(blocks) for blocks in _mine(delta_cc)]
    return ledger, reports


def _by_txid(events):
    out: dict[tuple[int, int], list[dict]] = {}
    for event in events:
        out.setdefault((event["epoch"], event["txid"]), []).append(event)
    return out


@pytest.mark.parametrize("delta_cc", [False, True])
class TestLifecycle:
    def test_every_transaction_leaves_a_complete_trail(self, delta_cc):
        ledger, reports = _run(False, delta_cc)
        trails = _by_txid(ledger.events())
        aborted_total = 0
        for epoch_offset, report in enumerate(reports):
            epoch = report.epoch_index
            ingested = sum(
                1
                for (e, _), events in trails.items()
                if e == epoch and any(ev["kind"] == "ingest" for ev in events)
            )
            assert ingested == report.input_transactions
            committed = aborted = 0
            for (e, _txid), events in trails.items():
                if e != epoch:
                    continue
                kinds = {event["kind"] for event in events}
                assert "ingest" in kinds
                if "commit" in kinds:
                    committed += 1
                    # A committed transaction was executed and scheduled,
                    # and never also recorded an abort.
                    assert {"execute", "schedule"} <= kinds
                    assert "abort" not in kinds
                elif "abort" in kinds:
                    aborted += 1
            assert committed == report.committed
            aborted_total += aborted
        assert aborted_total == sum(report.aborted for report in reports)
        del epoch_offset

    def test_abort_events_reconcile_with_report_taxonomy(self, delta_cc):
        ledger, reports = _run(False, delta_cc)
        for report in reports:
            observed: dict[str, int] = {}
            for event in ledger.events():
                if event["epoch"] != report.epoch_index:
                    continue
                if event["kind"] != "abort":
                    continue
                assert event["reason"] in ABORT_REASONS
                observed[event["reason"]] = observed.get(event["reason"], 0) + 1
            assert observed == dict(report.abort_reasons)

    def test_hard_aborts_carry_attributed_edges(self, delta_cc):
        ledger, reports = _run(False, delta_cc)
        hard = 0
        for event in ledger.events():
            if event["kind"] != "abort":
                continue
            if event["reason"] not in (UNSERIALIZABLE_WRITE, DELTA_OVERFLOW):
                continue
            hard += 1
            assert event["edges"], f"unattributed hard abort: {event}"
            for peer, address, kind in event["edges"]:
                assert isinstance(peer, int)
                assert isinstance(address, str) and address
                assert kind in EDGE_KINDS
        # The hot workload must actually exercise the attribution path.
        assert hard > 0
        del reports


class TestStreamingEquivalence:
    @pytest.mark.parametrize("delta_cc", [False, True])
    def test_digest_identical_barrier_vs_streaming(self, delta_cc):
        barrier_ledger, barrier_reports = _run(False, delta_cc)
        live_ledger, live_reports = _run(True, delta_cc)
        assert [r.state_root for r in barrier_reports] == [
            r.state_root for r in live_reports
        ]
        assert timeline_digest(barrier_ledger.events()) == timeline_digest(
            live_ledger.events()
        )

    def test_streaming_records_speculation_lifecycle(self):
        ledger, _ = _run(True, False)
        kinds = {event["kind"] for event in ledger.events()}
        assert "speculate" in kinds
        assert "reconcile" in kinds
        outcomes = {
            event["outcome"]
            for event in ledger.events()
            if event["kind"] == "reconcile"
        }
        assert "kept" in outcomes


class TestGuardAborts:
    def test_delta_overflow_victims_skip_commit(self):
        # Delta-CC runs the commit-time overflow guard; any victim gets a
        # schedule event (it *was* scheduled) but no commit event.
        ledger, reports = _run(False, True)
        guard_victims = [
            (event["epoch"], event["txid"])
            for event in ledger.events()
            if event["kind"] == "abort" and event["reason"] == DELTA_OVERFLOW
        ]
        trails = _by_txid(ledger.events())
        for key in guard_victims:
            kinds = {event["kind"] for event in trails[key]}
            assert "schedule" in kinds
            assert "commit" not in kinds
        del reports
