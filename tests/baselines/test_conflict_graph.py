"""Unit tests for the CG strawman scheme."""

from __future__ import annotations

from repro.analysis.certify import certify_epoch
from repro.baselines import (
    CGConfig,
    CGScheduler,
    build_conflict_graph,
    remove_cycles,
    topological_order,
)
from repro.txn import make_transaction
from repro.workload import SmallBankConfig, SmallBankWorkload, flatten_blocks


class TestGraphConstruction:
    def test_read_write_dependency_direction(self):
        txns = [
            make_transaction(1, reads=["x"]),
            make_transaction(2, writes=["x"]),
        ]
        graph = build_conflict_graph(txns)
        assert graph.out_edges.get(1) == {2}
        assert 2 not in graph.out_edges or 1 not in graph.out_edges[2]

    def test_reverse_read_write_dependency(self):
        txns = [
            make_transaction(1, writes=["x"]),
            make_transaction(2, reads=["x"]),
        ]
        graph = build_conflict_graph(txns)
        assert graph.out_edges.get(2) == {1}

    def test_write_write_goes_id_order(self):
        txns = [
            make_transaction(1, writes=["x"]),
            make_transaction(2, writes=["x"]),
        ]
        graph = build_conflict_graph(txns)
        assert graph.out_edges.get(1) == {2}

    def test_no_conflict_no_edges(self):
        txns = [
            make_transaction(1, reads=["a"], writes=["b"]),
            make_transaction(2, reads=["c"], writes=["d"]),
        ]
        graph = build_conflict_graph(txns)
        assert not any(graph.out_edges.values())

    def test_paper_example_cycle_exists(self, paper_transactions):
        graph = build_conflict_graph(paper_transactions)
        # The unserializable T1/T6 pair shows up as the cycle T6->T1->T2->T6.
        assert 1 in graph.out_edges.get(6, set())
        assert 2 in graph.out_edges.get(1, set())
        assert 6 in graph.out_edges.get(2, set())


class TestCycleRemoval:
    def test_acyclic_graph_untouched(self):
        txns = [
            make_transaction(1, reads=["x"]),
            make_transaction(2, writes=["x"]),
        ]
        graph = build_conflict_graph(txns)
        aborted, cycles = remove_cycles(graph)
        assert aborted == set()
        assert cycles == 0

    def test_cycle_broken_by_aborting(self, paper_transactions):
        graph = build_conflict_graph(paper_transactions)
        aborted, cycles = remove_cycles(graph)
        assert cycles >= 1
        assert aborted
        # The residual graph must topo-sort.
        order = topological_order(graph)
        assert len(order) == 6 - len(aborted)

    def test_vertex_removal_cleans_edges(self):
        txns = [
            make_transaction(1, writes=["x"]),
            make_transaction(2, reads=["x"], writes=["x"]),
        ]
        graph = build_conflict_graph(txns)
        graph.remove_vertex(1)
        assert 1 not in graph.vertices
        assert all(1 not in targets for targets in graph.out_edges.values())
        assert all(1 not in sources for sources in graph.in_edges.values())


class TestTopologicalOrder:
    def test_respects_dependencies(self, paper_transactions):
        graph = build_conflict_graph(paper_transactions)
        remove_cycles(graph)
        order = topological_order(graph)
        position = {txid: i for i, txid in enumerate(order)}
        for src, targets in graph.out_edges.items():
            for dst in targets:
                assert position[src] < position[dst]

    def test_ties_broken_by_id(self):
        txns = [make_transaction(i, writes=[f"w{i}"]) for i in (4, 2, 9)]
        graph = build_conflict_graph(txns)
        assert topological_order(graph) == [2, 4, 9]


class TestCGScheduler:
    def test_schedule_is_serial(self, paper_transactions):
        result = CGScheduler().schedule(paper_transactions)
        assert all(len(group) == 1 for group in result.schedule.groups)

    def test_schedule_is_serializable(self):
        workload = SmallBankWorkload(SmallBankConfig(skew=0.6, seed=5))
        txns = flatten_blocks(workload.generate_blocks(2, 60))
        result = CGScheduler().schedule(txns)
        assert not result.failed
        certificate = certify_epoch(
            {t.txid: t.rwset for t in txns}, result.schedule, scheme="cg"
        )
        assert certificate.ok, certificate.summary()

    def test_budget_blowout_marks_failed(self):
        workload = SmallBankWorkload(SmallBankConfig(skew=1.0, seed=1))
        txns = flatten_blocks(workload.generate_blocks(4, 150))
        result = CGScheduler(CGConfig(cycle_budget=100)).schedule(txns)
        assert result.failed
        assert result.schedule.committed == ()
        assert result.failure is not None

    def test_timings_reported(self, paper_transactions):
        result = CGScheduler().schedule(paper_transactions)
        timings = result.phase_seconds()
        assert set(timings) == {
            "graph_construction",
            "cycle_detection",
            "topological_sorting",
        }
        assert sum(timings.values()) >= 0

    def test_deterministic(self, paper_transactions):
        first = CGScheduler().schedule(paper_transactions)
        second = CGScheduler().schedule(paper_transactions)
        assert first.schedule == second.schedule
