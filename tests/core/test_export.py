"""Tests for the DOT graph exports."""

from __future__ import annotations

from repro.baselines import build_conflict_graph
from repro.core import (
    NezhaScheduler,
    acg_to_dot,
    conflict_graph_to_dot,
    schedule_to_dot,
)

from tests.reference import build_acg, divide_ranks


class TestACGDot:
    def test_contains_units_and_edges(self, paper_transactions):
        acg = build_acg(paper_transactions)
        dot = acg_to_dot(acg)
        assert dot.startswith("digraph ACG {")
        assert dot.endswith("}")
        assert "T1^R" in dot  # T1 reads A2
        assert "T5^W" in dot
        assert '"A1" -> "A2"' in dot

    def test_rank_labels(self, paper_transactions):
        acg = build_acg(paper_transactions)
        dot = acg_to_dot(acg, rank_order=divide_ranks(acg))
        assert "A2 (rank 1)" in dot
        assert "A4 (rank 4)" in dot

    def test_multiplicity_label(self):
        from repro.txn import make_transaction

        txns = [
            make_transaction(1, reads=["a"], writes=["b"]),
            make_transaction(2, reads=["a"], writes=["b"]),
        ]
        dot = acg_to_dot(build_acg(txns))
        assert 'label="x2"' in dot

    def test_deterministic(self, paper_transactions):
        acg = build_acg(paper_transactions)
        assert acg_to_dot(acg) == acg_to_dot(acg)


class TestConflictGraphDot:
    def test_contains_vertices_and_edges(self, paper_transactions):
        graph = build_conflict_graph(paper_transactions)
        dot = conflict_graph_to_dot(graph)
        assert '"T6" -> "T1"' in dot
        for txid in range(1, 7):
            assert f'"T{txid}"' in dot


class TestScheduleDot:
    def test_groups_and_aborted(self, paper_transactions):
        result = NezhaScheduler().schedule(paper_transactions)
        dot = schedule_to_dot(result.schedule)
        assert "T3, T4" in dot
        assert "aborted" in dot
        assert "T1" in dot

    def test_group_chain_edges(self, paper_transactions):
        result = NezhaScheduler().schedule(paper_transactions)
        dot = schedule_to_dot(result.schedule)
        # Three groups -> two chain edges.
        assert dot.count('" -> "') == 2
