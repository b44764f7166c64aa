"""Abort-reason taxonomy: conservation, threading, and metric labels.

The invariant every layer must preserve: an ``EpochReport``'s
``abort_reasons`` counts sum exactly to ``aborted`` — no abort goes
unclassified, no classification survives a §IV-D revival.
"""

from __future__ import annotations

import pytest

from repro.baselines import CGScheduler, OCCScheduler
from repro.core import NezhaScheduler
from repro.dag import EpochCoordinator, Mempool, ParallelChains, PoWParams
from repro.node import FullNode, PipelineConfig
from repro.obs import (
    ABORT_REASONS,
    DELTA_OVERFLOW,
    DOOMED_REORDER,
    SCHEME_CONFLICT,
    UNSERIALIZABLE_WRITE,
    node_families,
    parse_prometheus,
    render_prometheus,
    taxonomy_counts,
)
from repro.state import StateDB
from repro.txn import make_transaction
from repro.vm.contracts.smallbank import default_registry
from repro.vm.opcodes import WORD_MASK
from repro.workload import (
    SmallBankConfig,
    SmallBankWorkload,
    flatten_blocks,
    initial_state,
)

from tests.node.test_pipeline import build_node, mine_epochs
from tests.reference import schedule_reference

CONTENDED = SmallBankConfig(account_count=40, skew=1.1, seed=7)


def contended_batch(blocks: int = 4, block_size: int = 60):
    workload = SmallBankWorkload(CONTENDED)
    return flatten_blocks(workload.generate_blocks(blocks, block_size))


class TestTaxonomyCounts:
    def test_counts_sum_to_aborted_without_reasons(self):
        counts = taxonomy_counts((3, 9, 11))
        assert counts == {SCHEME_CONFLICT: 3}

    def test_known_reasons_bucketed(self):
        counts = taxonomy_counts(
            (1, 2, 3),
            {1: UNSERIALIZABLE_WRITE, 2: DOOMED_REORDER, 3: UNSERIALIZABLE_WRITE},
        )
        assert counts == {DOOMED_REORDER: 1, UNSERIALIZABLE_WRITE: 2}

    def test_unknown_reason_falls_back_to_scheme_conflict(self):
        counts = taxonomy_counts((1,), {1: "martian"})
        assert counts == {SCHEME_CONFLICT: 1}

    def test_empty_abort_set(self):
        assert taxonomy_counts(()) == {}


class TestSchedulerReasons:
    def test_fast_and_reference_paths_agree(self):
        batch = contended_batch()
        fast = NezhaScheduler().schedule(batch)
        reference = schedule_reference(batch)
        assert fast.abort_reasons == reference.abort_reasons
        assert fast.revived == reference.revived

    def test_reasons_cover_exactly_the_aborted_set(self):
        result = NezhaScheduler().schedule(contended_batch())
        assert set(result.abort_reasons) == set(result.schedule.aborted)
        assert set(result.abort_reasons.values()) <= set(ABORT_REASONS)

    def test_contended_batch_actually_aborts(self):
        # Guard: the fixtures must exercise the taxonomy, not vacuously pass.
        result = NezhaScheduler().schedule(contended_batch())
        assert result.schedule.aborted_count > 0


class TestReportConservation:
    @pytest.mark.parametrize(
        "scheduler_factory", [NezhaScheduler, CGScheduler, OCCScheduler]
    )
    def test_reason_counts_sum_to_aborted(self, scheduler_factory):
        node = build_node(scheduler_factory())
        for report in mine_epochs(node, epochs=2):
            assert sum(report.abort_reasons.values()) == report.aborted
            assert set(report.abort_reasons) <= set(ABORT_REASONS)

    def test_nezha_aborts_carry_specific_reasons(self):
        node = build_node(NezhaScheduler())
        reports = mine_epochs(node, epochs=3)
        classified = {
            reason for report in reports for reason in report.abort_reasons
        }
        if any(report.aborted for report in reports):
            # Nezha attributes every abort; nothing lands in the catch-all.
            assert SCHEME_CONFLICT not in classified

    def test_revived_is_non_negative_and_separate(self):
        node = build_node(NezhaScheduler())
        for report in mine_epochs(node, epochs=2):
            assert report.revived >= 0
            # Revived transactions commit; they are not in the abort counts.
            assert report.committed + report.aborted + report.failed_simulation == (
                report.input_transactions
            )


class TestDeltaCCConservation:
    """Taxonomy conservation must survive operation-level CC, including
    the commit-time guard aborts that never appear in the schedule."""

    def _mine(self, delta_cc, epochs=2, block_size=40):
        state = StateDB()
        state.seed(initial_state(CONTENDED))
        node = FullNode(
            chains=ParallelChains(chain_count=3, pow_params=PoWParams(6)),
            state=state,
            scheduler=NezhaScheduler(),
            registry=default_registry(include_bytecode=True),
            config=PipelineConfig(delta_cc=delta_cc),
        )
        chains = ParallelChains(chain_count=3, pow_params=node.chains.pow_params)
        coordinator = EpochCoordinator(
            chains=chains, miners=["m0"], block_size=block_size
        )
        pool = Mempool()
        pool.submit_many(
            SmallBankWorkload(CONTENDED).generate(epochs * 3 * block_size + 60)
        )
        with node:
            return [
                node.receive_epoch(
                    coordinator.mine_epoch(pool, state_root=node.state_root)
                )
                for _ in range(epochs)
            ]

    @pytest.mark.parametrize("delta_cc", [False, True], ids=["baseline", "delta-cc"])
    def test_reason_counts_sum_to_aborted(self, delta_cc):
        for report in self._mine(delta_cc):
            assert sum(report.abort_reasons.values()) == report.aborted
            assert set(report.abort_reasons) <= set(ABORT_REASONS)
            assert report.committed + report.aborted + report.failed_simulation == (
                report.input_transactions
            )
            assert report.delta_commuted >= 0
            if not delta_cc:
                assert report.delta_commuted == 0

    def test_delta_cc_commutes_and_reduces_aborts(self):
        baseline = self._mine(False)
        delta = self._mine(True)
        assert sum(r.delta_commuted for r in delta) > 0
        assert sum(r.aborted for r in delta) < sum(r.aborted for r in baseline)

    def test_overflow_guard_reason_threads_to_report(self):
        state = StateDB()
        state.seed({"hot": WORD_MASK - 10})
        node = FullNode(
            chains=ParallelChains(chain_count=3, pow_params=PoWParams(6)),
            state=state,
            scheduler=NezhaScheduler(),
            config=PipelineConfig(delta_cc=True),
        )
        chains = ParallelChains(chain_count=3, pow_params=node.chains.pow_params)
        coordinator = EpochCoordinator(chains=chains, miners=["m0"], block_size=8)
        pool = Mempool()
        # Declared-delta passthrough transactions racing one nearly full
        # counter: the first fold fits, every later one overflows.
        pool.submit_many(
            make_transaction(txid, deltas={"hot": 8}) for txid in range(1, 25)
        )
        with node:
            blocks = coordinator.mine_epoch(pool, state_root=node.state_root)
            report = node.receive_epoch(blocks)
        assert report.abort_reasons.get(DELTA_OVERFLOW, 0) > 0
        assert sum(report.abort_reasons.values()) == report.aborted
        assert report.committed + report.aborted + report.failed_simulation == (
            report.input_transactions
        )


class TestMetricsLabels:
    def test_rendered_reason_labelled_counters(self):
        node = build_node(NezhaScheduler())
        reports = mine_epochs(node, epochs=2)
        families = parse_prometheus(render_prometheus(node_families(node.reports)))
        total_aborted = sum(report.aborted for report in reports)
        assert families["txns_aborted_total"]["samples"][0][2] == total_aborted
        labelled_total = sum(
            value for _, _, value in families["txns_abort_reason_total"]["samples"]
        )
        assert labelled_total == total_aborted

    def test_phase_histograms_per_phase_label(self):
        node = build_node(NezhaScheduler())
        mine_epochs(node, epochs=1)
        families = parse_prometheus(render_prometheus(node_families(node.reports)))
        phases = {
            labels["phase"]
            for _, labels, _ in families["phase_latency_seconds"]["samples"]
        }
        assert phases == {
            "validation", "execution", "concurrency_control", "commitment"
        }
        # CC latency is the concurrency_control series; no second summary
        # carries the same samples.
        assert "cc_latency_seconds" not in families
