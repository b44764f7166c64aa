"""Unit tests for sorting-rank division (Algorithm 1)."""

from __future__ import annotations

from repro.txn import make_transaction

from tests.reference import build_acg, divide_ranks, rank_addresses


def ranks(vertices, edges):
    out: dict[str, set[str]] = {}
    incoming: dict[str, set[str]] = {}
    for src, dst in edges:
        out.setdefault(src, set()).add(dst)
        incoming.setdefault(dst, set()).add(src)
    return rank_addresses(vertices, out, incoming)


class TestAcyclicGraphs:
    def test_empty(self):
        assert ranks([], []) == []

    def test_isolated_vertices_in_address_order(self):
        assert ranks(["c", "a", "b"], []) == ["a", "b", "c"]

    def test_chain(self):
        assert ranks(["a", "b", "c"], [("a", "b"), ("b", "c")]) == ["a", "b", "c"]

    def test_reverse_chain(self):
        assert ranks(["a", "b", "c"], [("c", "b"), ("b", "a")]) == ["c", "b", "a"]

    def test_topological_property_holds(self):
        edges = [("a", "c"), ("b", "c"), ("c", "d"), ("b", "d")]
        order = ranks(["a", "b", "c", "d"], edges)
        position = {v: i for i, v in enumerate(order)}
        for src, dst in edges:
            assert position[src] < position[dst]

    def test_zero_indegree_ties_broken_by_address(self):
        # Both a and b start at zero in-degree; a must come first.
        assert ranks(["b", "a"], [("a", "z"), ("b", "z")]) == ["a", "b", "z"]


class TestCyclicGraphs:
    def test_two_cycle_prefers_max_outdegree(self):
        # a <-> b, plus a -> c: a has out-degree 2, b has 1.
        order = ranks(["a", "b", "c"], [("a", "b"), ("b", "a"), ("a", "c")])
        assert order[0] == "a"

    def test_tie_broken_by_smaller_address(self):
        # Symmetric 2-cycle: equal in/out degrees; a wins by name.
        assert ranks(["b", "a"], [("a", "b"), ("b", "a")]) == ["a", "b"]

    def test_simple_triangle(self):
        # All equal; smallest address selected first, rest unravel acyclically.
        order = ranks(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
        assert order == ["a", "b", "c"]

    def test_paper_cycle(self, paper_transactions):
        acg = build_acg(paper_transactions)
        assert divide_ranks(acg) == ["A2", "A3", "A1", "A4"]

    def test_cycle_plus_tail_emits_zero_indegree_first(self):
        # t has zero in-degree and must be emitted before touching the cycle.
        order = ranks(["a", "b", "t"], [("a", "b"), ("b", "a"), ("t", "a")])
        assert order[0] == "t"

    def test_all_vertices_emitted_exactly_once(self):
        edges = [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"), ("d", "c")]
        order = ranks(list("abcd"), edges)
        assert sorted(order) == ["a", "b", "c", "d"]


class TestScale:
    def test_long_chain_does_not_recurse(self):
        # 50k-vertex chain would overflow Python's stack if recursive.
        vertices = [f"v{i:06d}" for i in range(50_000)]
        edges = [(vertices[i], vertices[i + 1]) for i in range(len(vertices) - 1)]
        order = ranks(vertices, edges)
        assert order == vertices

    def test_deterministic_across_runs(self):
        txns = [
            make_transaction(i, reads=[f"r{i % 7}"], writes=[f"w{i % 5}", f"r{(i + 3) % 7}"])
            for i in range(200)
        ]
        acg = build_acg(txns)
        assert divide_ranks(acg) == divide_ranks(acg)
