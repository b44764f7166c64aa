"""Streaming epoch engine: bit-identity with the barrier pipeline.

DESIGN.md invariant 11: a streaming node replaying the same block
sequence as a barrier node produces bit-identical epoch reports —
state roots, commit/abort counts, abort taxonomy, commit groups — for
every CC mode.  Speculation and reconciliation are pure
optimisations of *when* work happens, never of *what* is computed.

Blocks are pre-mined per CC mode with a config-matched probe node:
delta-CC changes the conflict structure, hence abort sets, hence the
committed roots the miners chain on.
"""

from __future__ import annotations

import dataclasses
import threading

import pytest

from repro.analysis import race
from repro.core import NezhaScheduler
from repro.dag import EpochCoordinator, Mempool, ParallelChains, PoWParams
from repro.errors import BlockValidationError
from repro.node import FullNode, PipelineConfig
from repro.obs import FlightLedger
from repro.state import StateDB
from repro.txn import Transaction
from repro.vm.contracts import default_registry
from repro.workload import SmallBankConfig, SmallBankWorkload, initial_state

EPOCHS = 4
CHAINS = 3
BLOCK_SIZE = 30
POW = PoWParams(6)

_MINED_CACHE: dict[tuple, list] = {}


def _workload_config(skew: float = 0.6) -> SmallBankConfig:
    return SmallBankConfig(account_count=250, skew=skew, seed=23)


def _fresh_state(skew: float = 0.6):
    state = StateDB()
    state.seed(initial_state(_workload_config(skew)))
    return state


def _make_node(
    streaming: bool,
    delta_cc: bool = False,
    skew: float = 0.6,
    ledger: FlightLedger | None = None,
) -> FullNode:
    return FullNode(
        chains=ParallelChains(chain_count=CHAINS, pow_params=POW),
        state=_fresh_state(skew),
        scheduler=NezhaScheduler(),
        registry=default_registry(include_bytecode=delta_cc),
        config=PipelineConfig(streaming=streaming, delta_cc=delta_cc),
        ledger=ledger,
    )


def _mine(delta_cc: bool, skew: float = 0.6) -> list:
    """Pre-mine EPOCHS epochs with a probe matching the CC config."""
    key = (delta_cc, skew)
    if key in _MINED_CACHE:
        return _MINED_CACHE[key]
    coordinator = EpochCoordinator(
        chains=ParallelChains(chain_count=CHAINS, pow_params=POW),
        miners=["m0"],
        block_size=BLOCK_SIZE,
    )
    mempool = Mempool()
    mempool.submit_many(
        SmallBankWorkload(_workload_config(skew)).generate(
            EPOCHS * CHAINS * BLOCK_SIZE + 60
        )
    )
    probe = _make_node(False, delta_cc, skew)
    epochs = []
    root = probe.state_root
    with probe:
        for _ in range(EPOCHS):
            blocks = coordinator.mine_epoch(mempool, state_root=root)
            epochs.append(blocks)
            root = probe.receive_epoch(blocks).state_root
    _MINED_CACHE[key] = epochs
    return epochs


def _fingerprint(reports):
    """Everything deterministic in a report — no timing floats."""
    return [
        (
            r.state_root.hex(),
            r.committed,
            r.aborted,
            r.failed_simulation,
            r.input_transactions,
            r.commit_group_count,
            tuple(sorted(r.abort_reasons.items())),
        )
        for r in reports
    ]


class TestBitIdentity:
    @pytest.mark.parametrize("delta_cc", [False, True])
    def test_streaming_matches_barrier(self, delta_cc):
        epochs = _mine(delta_cc)
        with _make_node(False, delta_cc) as barrier:
            expected = _fingerprint(
                [barrier.receive_epoch(b) for b in epochs]
            )
        # Live mode: submit + drain per call, report contract unchanged.
        with _make_node(True, delta_cc) as live:
            live_fp = _fingerprint([live.receive_epoch(b) for b in epochs])
            assert live.engine is not None
            assert live.engine.stats.epochs_fallback == 0
        # Replay mode: back-to-back submits realise the actual overlap.
        with _make_node(True, delta_cc) as replay:
            reports = []
            for blocks in epochs:
                previous = replay.submit_epoch(blocks)
                if previous is not None:
                    reports.append(previous)
            reports.extend(replay.drain())
            stats = replay.engine.stats
        assert live_fp == expected
        assert _fingerprint(reports) == expected
        assert stats.epochs_streamed == EPOCHS
        assert stats.epochs_fallback == 0
        assert stats.speculated == stats.kept + stats.reexecuted

    @pytest.mark.parametrize("skew", [0.0, 0.9])
    def test_streaming_matches_barrier_across_skew(self, skew):
        epochs = _mine(False, skew)
        with _make_node(False, skew=skew) as barrier:
            expected = _fingerprint(
                [barrier.receive_epoch(b) for b in epochs]
            )
        with _make_node(True, skew=skew) as replay:
            reports = []
            for blocks in epochs:
                previous = replay.submit_epoch(blocks)
                if previous is not None:
                    reports.append(previous)
            reports.extend(replay.drain())
        assert _fingerprint(reports) == expected


class TestReconcile:
    def test_speculated_success_that_reverts_on_reexecution_skips_cc(self):
        """Epoch 0 drains an account, epoch 1 spends from it.  Speculated
        against the values before epoch 0's commit the spend succeeds;
        re-executed at reconcile against the committed state it reverts,
        so — exactly as on a barrier node — it is a failed simulation that
        never reaches concurrency control."""

        def payment(txid, src, dst, amount):
            return Transaction(
                txid=txid,
                sender=f"user:{src:06d}",
                contract="smallbank",
                function="sendPayment",
                args=(src, dst, amount),
            )

        balance = _fresh_state().get("chk:000001")
        coordinator = EpochCoordinator(
            chains=ParallelChains(chain_count=CHAINS, pow_params=POW),
            miners=["m0"],
            block_size=BLOCK_SIZE,
        )
        mempool = Mempool()
        epochs = []
        with _make_node(False) as barrier:
            for txns in (
                [payment(1, 1, 2, balance)],
                [payment(2, 1, 3, 1), payment(3, 4, 5, 1)],
            ):
                mempool.submit_many(txns)
                epochs.append(
                    coordinator.mine_epoch(mempool, state_root=barrier.state_root)
                )
                barrier.receive_epoch(epochs[-1])
            expected = _fingerprint(barrier.reports)
        assert barrier.reports[1].failed_simulation == 1
        assert barrier.reports[1].committed == 1

        with _make_node(True, ledger=FlightLedger()) as replay:
            # Epoch 0's commit waits on the back stage until epoch 1's
            # speculation has returned, so the spend is speculated against
            # the pre-commit balance whatever the thread timing.
            speculated = threading.Event()
            engine, committer = replay.engine, replay.pipeline.committer
            inner_speculate, inner_commit = engine._speculate, committer.commit

            def speculate(blocks):
                index = replay.next_epoch
                spec = inner_speculate(blocks)
                if index == 1:
                    speculated.set()
                return spec

            def commit(*args, **kwargs):
                assert speculated.wait(timeout=60)
                return inner_commit(*args, **kwargs)

            engine._speculate, committer.commit = speculate, commit
            for blocks in epochs:
                replay.submit_epoch(blocks)
            replay.drain()
            stats = replay.engine.stats
        assert _fingerprint(replay.reports) == expected
        assert stats.epochs_streamed == 2
        assert (stats.speculated, stats.kept, stats.reexecuted) == (3, 2, 1)
        spend = {e["kind"]: e for e in replay.ledger.events() if e["txid"] == 2}
        assert spend["speculate"]["ok"] is True
        assert spend["reconcile"]["outcome"] == "reexecuted"
        assert "schedule" not in spend


class TestUnrunnableCall:
    def test_epoch_carrying_one_commits_the_rest(self):
        """A call to an undeployed contract (epoch 0) or an unknown
        function (epoch 1) is one failed simulation; the rest of its
        epoch commits, on the barrier and the streaming path alike."""

        def call(txid, contract, function, args=()):
            return Transaction(
                txid=txid,
                sender="user:000001",
                contract=contract,
                function=function,
                args=args,
            )

        coordinator = EpochCoordinator(
            chains=ParallelChains(chain_count=CHAINS, pow_params=POW),
            miners=["m0"],
            block_size=BLOCK_SIZE,
        )
        mempool = Mempool()
        epochs = []
        with _make_node(False) as barrier:
            for txns in (
                [call(1, "nosuch", "f"), call(2, "smallbank", "updateSavings", (1, 5))],
                [call(3, "smallbank", "nosuch"), call(4, "smallbank", "updateSavings", (2, 5))],
            ):
                mempool.submit_many(txns)
                epochs.append(
                    coordinator.mine_epoch(mempool, state_root=barrier.state_root)
                )
                barrier.receive_epoch(epochs[-1])
        for report in barrier.reports:
            assert (report.failed_simulation, report.committed) == (1, 1)

        with _make_node(True) as replay:
            for blocks in epochs:
                replay.submit_epoch(blocks)
            replay.drain()
            assert replay.engine.stats.epochs_streamed == 2
        assert _fingerprint(replay.reports) == _fingerprint(barrier.reports)


class TestQueueDiscipline:
    def test_flood_keeps_one_epoch_in_flight(self):
        """A flood of submits degrades to barrier pacing: one in-flight
        slot, every epoch reported exactly once, in order."""
        epochs = _mine(False)
        with _make_node(True) as node:
            engine = node.engine
            assert engine is not None
            reports = []
            for i, blocks in enumerate(epochs):
                previous = node.submit_epoch(blocks)
                # The slot holds exactly the epoch just admitted.
                assert engine._inflight is not None
                assert engine._inflight.epoch.index == i
                if previous is not None:
                    reports.append(previous)
            reports.extend(node.drain())
            assert engine._inflight is None
        assert [r.epoch_index for r in reports] == list(range(EPOCHS))
        assert len(node.reports) == EPOCHS

    def test_drain_is_idempotent(self):
        epochs = _mine(False)
        with _make_node(True) as node:
            node.submit_epoch(epochs[0])
            assert len(node.drain()) == 1
            assert node.drain() == []

    def test_submit_requires_streaming_mode(self):
        with _make_node(False) as node:
            assert node.engine is None
            with pytest.raises(RuntimeError):
                node.submit_epoch(_mine(False)[0])
            assert node.drain() == []


class TestFallback:
    def test_stale_block_falls_back_to_barrier(self):
        """A block carrying a stale root is discarded at admission; the
        speculated guess no longer matches, so the epoch takes the
        synchronous barrier path — and still matches a barrier node
        offered the same blocks."""
        epochs = _mine(False)
        stale = epochs[0][0]
        offered = [list(b) for b in epochs]
        offered[1] = offered[1] + [dataclasses.replace(stale)]
        with _make_node(False) as barrier:
            expected = _fingerprint(
                [barrier.receive_epoch(b) for b in offered]
            )
        with _make_node(True) as replay:
            reports = []
            for blocks in offered:
                previous = replay.submit_epoch(blocks)
                if previous is not None:
                    reports.append(previous)
            reports.extend(replay.drain())
            stats = replay.engine.stats
        assert _fingerprint(reports) == expected
        assert stats.epochs_fallback == 1
        assert stats.epochs_streamed == EPOCHS - 1

    def test_all_blocks_discarded_still_raises(self):
        epochs = _mine(False)
        with _make_node(True) as node:
            node.submit_epoch(epochs[0])
            with pytest.raises(BlockValidationError):
                node.submit_epoch(epochs[0])  # same roots: all stale now
            # The engine already joined epoch 0; drain returns nothing
            # new but the node still holds its report.
            node.drain()
            assert len(node.reports) == 1


class TestSanitizedSession:
    def test_detector_watches_the_back_stage(self, race_detector):
        """CI's sanitizer job runs this file under ``REPRO_SANITIZE=1``.
        The per-test detector must then be the installed one and see the
        engine's cross-thread accesses — a fixture elsewhere that quietly
        removed it would leave the whole job checking nothing."""
        if race_detector is None:
            pytest.skip("REPRO_SANITIZE is off")
        with _make_node(True) as node:
            for blocks in _mine(False)[:2]:
                node.submit_epoch(blocks)
            node.drain()
            assert race.active() is race_detector
        assert race_detector.summary()["accesses"] > 0
