"""Unit tests for bounded Johnson cycle enumeration."""

from __future__ import annotations

import itertools

import pytest

from repro.baselines import find_elementary_cycles
from repro.errors import CycleBudgetExceeded


def cycles_of(vertices, edges, budget=10_000):
    out: dict = {}
    for src, dst in edges:
        out.setdefault(src, set()).add(dst)
    return find_elementary_cycles(vertices, out, budget)


def normalize(cycle):
    """Rotate a cycle so its smallest vertex comes first."""
    pivot = cycle.index(min(cycle))
    return tuple(cycle[pivot:] + cycle[:pivot])


class TestJohnson:
    def test_acyclic_graph(self):
        assert cycles_of([1, 2, 3], [(1, 2), (2, 3)]) == []

    def test_two_cycle(self):
        cycles = cycles_of([1, 2], [(1, 2), (2, 1)])
        assert [normalize(c) for c in cycles] == [(1, 2)]

    def test_self_loop(self):
        cycles = cycles_of([1], [(1, 1)])
        assert cycles == [(1,)]

    def test_triangle_with_chord(self):
        cycles = cycles_of([1, 2, 3], [(1, 2), (2, 3), (3, 1), (3, 2)])
        found = {normalize(c) for c in cycles}
        assert found == {(1, 2, 3), (2, 3)}

    def test_complete_graph_cycle_count(self):
        # K4 has 20 elementary cycles: C(4,2) pairs + 2*C(4,3) triangles +
        # 3!*C(4,4) four-cycles = 6 + 8 + 6.
        vertices = [1, 2, 3, 4]
        edges = [(a, b) for a, b in itertools.permutations(vertices, 2)]
        out_edges = {a: {b for x, b in edges if x == a} for a in vertices}
        assert len(find_elementary_cycles(vertices, out_edges)) == 20

    def test_cycles_are_elementary(self):
        edges = [(1, 2), (2, 3), (3, 1), (3, 4), (4, 1)]
        cycles = cycles_of([1, 2, 3, 4], edges)
        for cycle in cycles:
            assert len(set(cycle)) == len(cycle)

    def test_budget_exceeded_raises(self):
        vertices = list(range(9))
        out = {a: {b for b in vertices if b != a} for a in vertices}
        with pytest.raises(CycleBudgetExceeded) as excinfo:
            find_elementary_cycles(vertices, out, budget=50)
        assert excinfo.value.budget == 50

    def test_budget_boundary_exact_count_passes(self):
        # Exactly 1 cycle with budget 1 must not raise.
        cycles = cycles_of([1, 2], [(1, 2), (2, 1)], budget=1)
        assert len(cycles) == 1

    def test_disconnected_cycles_all_found(self):
        edges = [(1, 2), (2, 1), (3, 4), (4, 3)]
        cycles = cycles_of([1, 2, 3, 4], edges)
        assert {normalize(c) for c in cycles} == {(1, 2), (3, 4)}

    def test_matches_networkx_on_random_graphs(self):
        networkx = pytest.importorskip("networkx")
        import random

        rng = random.Random(99)
        for trial in range(10):
            n = rng.randint(3, 8)
            vertices = list(range(n))
            edges = set()
            for _ in range(rng.randint(n, 3 * n)):
                a, b = rng.sample(vertices, 2)
                edges.add((a, b))
            out = {v: {b for a, b in edges if a == v} for v in vertices}
            ours = {normalize(c) for c in find_elementary_cycles(vertices, out)}
            graph = networkx.DiGraph(list(edges))
            theirs = {normalize(tuple(c)) for c in networkx.simple_cycles(graph)}
            assert ours == theirs, f"trial {trial}: {ours ^ theirs}"
