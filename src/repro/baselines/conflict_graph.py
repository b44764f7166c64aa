"""The CG strawman: OCC with a transaction-level conflict graph.

Reimplements the scheme the paper compares against (Section III-D),
following Fabric++/FabricSharp: ① pairwise dependency capture into a
conflict graph, ② cycle detection (Tarjan + Johnson) and removal by
aborting transactions, ③ topological sorting into a *serial* commit
order.  Each step runs inside a span whose duration is reported, so
Figure 10 can be reproduced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.baselines.johnson import DEFAULT_CYCLE_BUDGET, find_elementary_cycles
from repro.baselines.tarjan import nontrivial_components
from repro.core.schedule import Schedule, SchemeResult, serial_schedule
from repro.errors import CycleBudgetExceeded, SchedulingError
from repro.obs.tracer import Tracer, maybe_span
from repro.txn.transaction import Transaction


@dataclass(frozen=True)
class CGConfig:
    """Tunables for the conflict-graph scheme.

    Attributes
    ----------
    cycle_budget:
        Maximum number of elementary cycles Johnson's algorithm may
        enumerate before the scheme fails (models the paper's OOM).
    """

    cycle_budget: int = DEFAULT_CYCLE_BUDGET


@dataclass
class ConflictGraph:
    """Transaction-level conflict graph (Definition 2)."""

    vertices: list[int] = field(default_factory=list)
    out_edges: dict[int, set[int]] = field(default_factory=dict)
    in_edges: dict[int, set[int]] = field(default_factory=dict)

    @property
    def edge_count(self) -> int:
        """Number of directed dependency edges."""
        return sum(len(targets) for targets in self.out_edges.values())

    def add_edge(self, src: int, dst: int) -> None:
        """Record the transaction dependency ``src -> dst``."""
        self.out_edges.setdefault(src, set()).add(dst)
        self.in_edges.setdefault(dst, set()).add(src)

    def remove_vertex(self, txid: int) -> None:
        """Drop a vertex and all incident edges (transaction aborted)."""
        for succ in self.out_edges.pop(txid, set()):
            self.in_edges.get(succ, set()).discard(txid)
        for pred in self.in_edges.pop(txid, set()):
            self.out_edges.get(pred, set()).discard(txid)
        self.vertices.remove(txid)


@dataclass
class CGResult(SchemeResult):
    """Schedule plus diagnostics from one CG run."""

    schedule: Schedule
    phases: dict[str, float]
    graph: ConflictGraph
    cycle_count: int = 0
    failed: bool = False
    failure: str | None = None


def build_conflict_graph(transactions: Sequence[Transaction]) -> ConflictGraph:
    """Pairwise dependency capture (Definition 1).

    For every ordered pair, a read-write dependency ``T_u -> T_v`` is added
    when ``RS(T_u)`` intersects ``WS(T_v)`` (the reader must commit before
    the writer under snapshot reads); write-write dependencies are directed
    from the smaller to the larger id, the deterministic order the paper
    uses.  This is the ``O((|V|^2 - |V|) / 2)`` comparison step the paper
    criticises — kept faithfully, including its cost.
    """
    ordered = sorted(transactions, key=lambda t: t.txid)
    graph = ConflictGraph(vertices=[t.txid for t in ordered])
    summaries = [(t.txid, t.read_set, t.write_set) for t in ordered]
    count = len(summaries)
    for i in range(count):
        txid_a, reads_a, writes_a = summaries[i]
        for j in range(i + 1, count):
            txid_b, reads_b, writes_b = summaries[j]
            if reads_a & writes_b:
                graph.add_edge(txid_a, txid_b)
            if reads_b & writes_a:
                graph.add_edge(txid_b, txid_a)
            if writes_a & writes_b:
                graph.add_edge(txid_a, txid_b)
    return graph


def remove_cycles(
    graph: ConflictGraph, budget: int = DEFAULT_CYCLE_BUDGET
) -> tuple[set[int], int]:
    """Abort transactions until the graph is acyclic (Fabric++ style).

    All elementary cycles inside each non-trivial SCC are enumerated with
    Johnson's algorithm; the transaction participating in the most cycles
    is aborted greedily (ties broken towards the larger id, i.e. the
    younger transaction) until every enumerated cycle is broken.  Because
    removing vertices never creates cycles, one enumeration pass suffices
    per SCC, but SCCs are re-checked until none remain.

    Returns the aborted ids and the number of cycles enumerated.
    """
    aborted: set[int] = set()
    total_cycles = 0
    while True:
        components = nontrivial_components(sorted(graph.vertices), graph.out_edges)
        if not components:
            return aborted, total_cycles
        for component in components:
            members = set(component)
            sub_edges = {
                v: {w for w in graph.out_edges.get(v, ()) if w in members}
                for v in members
            }
            cycles = find_elementary_cycles(sorted(members), sub_edges, budget)
            total_cycles += len(cycles)
            live_cycles = [set(cycle) for cycle in cycles]
            while live_cycles:
                victim = _most_frequent_vertex(live_cycles)
                aborted.add(victim)
                graph.remove_vertex(victim)
                live_cycles = [c for c in live_cycles if victim not in c]


def _most_frequent_vertex(cycles: list[set[int]]) -> int:
    """Vertex appearing in the most cycles; ties favour the larger id."""
    counts: dict[int, int] = {}
    for cycle in cycles:
        for txid in cycle:
            counts[txid] = counts.get(txid, 0) + 1
    best_txid = -1
    best_count = -1
    for txid, count in counts.items():
        if count > best_count or (count == best_count and txid > best_txid):
            best_txid = txid
            best_count = count
    return best_txid


def topological_order(graph: ConflictGraph) -> list[int]:
    """Kahn's algorithm over the acyclic residual graph.

    Ties are broken by the smallest transaction id for determinism.
    """
    import heapq

    in_degree = {v: len(graph.in_edges.get(v, ())) for v in graph.vertices}
    heap = [v for v, degree in in_degree.items() if degree == 0]
    heapq.heapify(heap)
    order: list[int] = []
    while heap:
        node = heapq.heappop(heap)
        order.append(node)
        for succ in sorted(graph.out_edges.get(node, ())):
            in_degree[succ] -= 1
            if in_degree[succ] == 0:
                heapq.heappush(heap, succ)
    if len(order) != len(graph.vertices):
        raise SchedulingError("topological sort saw a residual cycle")
    return order


class CGScheduler:
    """End-to-end CG concurrency control (the paper's strawman)."""

    name = "cg"
    execution = "speculative"
    supports_deltas = False
    supports_streaming = False
    tracer: Tracer | None = None

    def __init__(self, config: CGConfig | None = None) -> None:
        self.config = config or CGConfig()

    def schedule(self, transactions: Sequence[Transaction]) -> CGResult:
        """Run construction, cycle removal, and topological sorting.

        On a cycle-budget blowout the result carries ``failed=True`` and an
        empty schedule, mirroring the paper's out-of-memory data points.
        """
        phases = dict.fromkeys(
            ("graph_construction", "cycle_detection", "topological_sorting"), 0.0
        )

        with maybe_span(self.tracer, "cg.graph_construction") as span:
            graph = build_conflict_graph(transactions)
        phases["graph_construction"] = span.duration

        try:
            with maybe_span(self.tracer, "cg.cycle_detection") as span:
                aborted, cycle_count = remove_cycles(graph, self.config.cycle_budget)
        except CycleBudgetExceeded as exc:
            phases["cycle_detection"] = span.duration
            return CGResult(
                schedule=Schedule(aborted=tuple(sorted(t.txid for t in transactions))),
                phases=phases,
                graph=graph,
                failed=True,
                failure=str(exc),
            )
        phases["cycle_detection"] = span.duration

        with maybe_span(self.tracer, "cg.topological_sorting") as span:
            order = topological_order(graph)
        phases["topological_sorting"] = span.duration

        schedule = serial_schedule(order, aborted=sorted(aborted))
        return CGResult(
            schedule=schedule,
            phases=phases,
            graph=graph,
            cycle_count=cycle_count,
        )
