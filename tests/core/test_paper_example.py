"""End-to-end pinning of the paper's worked examples (Sections IV-B/IV-C).

These tests encode Table III, Figure 4, Figure 6, and Figure 7 exactly on
the shipped scheduler — each reads one ``NezhaScheduler().schedule`` run —
so any regression in ACG construction, rank division, or sorting that
changes the published behaviour fails loudly.  One test holds the
reference stages (``tests/reference.py``) to the same figures.
"""

from __future__ import annotations

import pytest

from repro.core import NezhaConfig, NezhaScheduler

from tests.reference import schedule_reference

FIGURE4_UNITS = {
    "A1": ([6], [1]),
    "A2": ([1], [2, 3]),
    "A3": ([2], [4, 6]),
    "A4": ([3, 4, 5], [5]),
}
FIGURE6_EDGES = {("A1", "A2"), ("A2", "A3"), ("A2", "A4"), ("A3", "A4"), ("A3", "A1")}
FIGURE6_RANKS = ["A2", "A3", "A1", "A4"]
FIGURE7_GROUPS = [(2,), (3, 4), (5, 6)]


@pytest.fixture
def result(paper_transactions):
    """The shipped scheduler's one run over Table III (default config)."""
    return NezhaScheduler().schedule(paper_transactions)


class TestACGConstruction:
    def test_unit_lists_match_figure4(self, result):
        acg = result.acg
        for address, (reads, writes) in FIGURE4_UNITS.items():
            assert acg.rw(address).reads == reads
            assert acg.rw(address).writes == writes

    def test_edges_match_figure6(self, result):
        assert set(result.acg.iter_edges()) == FIGURE6_EDGES

    def test_self_access_builds_no_edge(self, result):
        # T5 reads and writes A4: no self-loop may appear.
        assert ("A4", "A4") not in set(result.acg.iter_edges())

    def test_edge_multiplicity_counts_transactions(self, result):
        acg = result.acg
        assert acg.edge_multiplicity[("A1", "A2")] == 1
        assert len(acg.edge_multiplicity) == 5
        assert acg.txn_count == 6

    def test_unit_count(self, result):
        acg = result.acg
        # 6 reads + 6 writes.
        assert sum(len(rw) for rw in acg.rw_lists.values()) == 12


class TestRankDivision:
    def test_rank_order_matches_figure6(self, result):
        assert result.rank_order == FIGURE6_RANKS


class TestHierarchicalSorting:
    def test_default_schedule_matches_figure7(self, result):
        assert [group.txids for group in result.schedule.groups] == FIGURE7_GROUPS
        assert result.schedule.aborted == (1,)

    def test_schedule_matches_figure7(self, paper_transactions):
        result = NezhaScheduler(NezhaConfig(enable_reorder=False)).schedule(
            paper_transactions
        )
        schedule = result.schedule
        # T1 is the unserializable transaction the paper aborts.
        assert schedule.aborted == (1,)
        sequences = schedule.sequences()
        base = sequences[2]
        assert sequences == {2: base, 3: base + 1, 4: base + 1, 5: base + 2, 6: base + 2}

    def test_commit_groups_match_figure7d(self, paper_transactions):
        result = NezhaScheduler(NezhaConfig(enable_reorder=False)).schedule(
            paper_transactions
        )
        groups = [group.txids for group in result.schedule.groups]
        assert groups == FIGURE7_GROUPS

    def test_reordering_cannot_rescue_single_write_t1(self, paper_transactions):
        # T1 has a single write unit, so the enhanced design still aborts it.
        result = NezhaScheduler(NezhaConfig(enable_reorder=True)).schedule(
            paper_transactions
        )
        assert result.schedule.aborted == (1,)
        assert result.schedule.reordered == ()


class TestReferenceOracle:
    def test_reference_stages_match_figures_4_6_7(self, paper_transactions):
        ref = schedule_reference(paper_transactions)
        for address, (reads, writes) in FIGURE4_UNITS.items():
            assert ref.acg.rw(address).reads == reads
            assert ref.acg.rw(address).writes == writes
        assert set(ref.acg.iter_edges()) == FIGURE6_EDGES
        assert ref.rank_order == FIGURE6_RANKS
        assert [group.txids for group in ref.schedule.groups] == FIGURE7_GROUPS
        assert ref.schedule.aborted == (1,)


class TestFigure1:
    def test_total_order(self, figure1_transactions):
        result = NezhaScheduler().schedule(figure1_transactions)
        schedule = result.schedule
        assert schedule.aborted == ()
        sequences = schedule.sequences()
        assert sequences[1] == sequences[2], "T1 and T2 commit concurrently"
        assert sequences[2] < sequences[3] < sequences[4]
