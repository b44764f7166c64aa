"""Johnson's elementary-circuit enumeration with a resource budget.

Fabric++ (and hence the paper's CG strawman) finds every elementary cycle
of the conflict graph with Johnson's algorithm, whose cost is
``O((V + E) * (c + 1))`` for ``c`` cycles.  Under high contention ``c``
explodes — the paper reports the CG scheme dying from out-of-memory at
``skew = 0.8``.  We bound the enumeration with an explicit budget and
raise :class:`~repro.errors.CycleBudgetExceeded` instead of exhausting
host memory; harnesses report this the way the paper reports OOM.
"""

from __future__ import annotations

from typing import Hashable, Mapping, Sequence, TypeVar

from repro.baselines.tarjan import strongly_connected_components
from repro.errors import CycleBudgetExceeded

Node = TypeVar("Node", bound=Hashable)

DEFAULT_CYCLE_BUDGET = 200_000
"""Maximum number of elementary cycles enumerated before giving up."""


def find_elementary_cycles(
    vertices: Sequence[Node],
    out_edges: Mapping[Node, set[Node]],
    budget: int = DEFAULT_CYCLE_BUDGET,
) -> list[tuple[Node, ...]]:
    """Enumerate all elementary cycles of a directed graph.

    Follows Johnson (1975): vertices are processed in ascending order; for
    each start vertex ``s`` only the subgraph induced by vertices ``>= s``
    inside ``s``'s SCC is searched, with the blocked-set / unblock
    machinery bounding redundant work.

    Raises
    ------
    CycleBudgetExceeded
        If more than ``budget`` cycles are found.
    """
    order: dict[Node, int] = {v: i for i, v in enumerate(sorted(vertices))}
    cycles: list[tuple[Node, ...]] = []
    for start in sorted(vertices, key=order.__getitem__):
        component = _component_of(start, order, out_edges)
        if component is None:
            continue
        _circuits_from(start, component, cycles, budget)
    return cycles


def _component_of(
    start: Node, order: Mapping[Node, int], out_edges: Mapping[Node, set[Node]]
) -> dict[Node, set[Node]] | None:
    """Adjacency of the SCC containing ``start`` within ``{v >= start}``.

    Returns ``None`` when that SCC is trivial and self-loop-free, i.e. no
    cycle can start at ``start``.
    """
    start_rank = order[start]
    allowed = {v for v, rank in order.items() if rank >= start_rank}
    sub_edges = {
        v: {w for w in out_edges.get(v, ()) if w in allowed} for v in allowed
    }
    for component in strongly_connected_components(sorted(allowed), sub_edges):
        if start not in component:
            continue
        members = set(component)
        if len(members) == 1 and start not in sub_edges.get(start, set()):
            return None
        return {v: {w for w in sub_edges.get(v, ()) if w in members} for v in members}
    return None


def _circuits_from(
    start: Node,
    adjacency: dict[Node, set[Node]],
    cycles: list[tuple[Node, ...]],
    budget: int,
) -> None:
    """Iterative version of Johnson's CIRCUIT procedure rooted at ``start``."""
    blocked: set[Node] = set()
    block_map: dict[Node, set[Node]] = {}
    path: list[Node] = [start]
    blocked.add(start)
    # Each frame: (node, sorted successor list, next index, found_cycle flag).
    frames: list[list] = [[start, sorted(adjacency[start]), 0, False]]
    while frames:
        frame = frames[-1]
        node, successors, position, _found = frame
        descended = False
        while frame[2] < len(successors):
            succ = successors[frame[2]]
            frame[2] += 1
            if succ == start:
                cycles.append(tuple(path))
                if len(cycles) > budget:
                    raise CycleBudgetExceeded(budget)
                frame[3] = True
            elif succ not in blocked:
                path.append(succ)
                blocked.add(succ)
                frames.append([succ, sorted(adjacency[succ]), 0, False])
                descended = True
                break
        if descended:
            continue
        frames.pop()
        path.pop()
        if frame[3]:
            _unblock(node, blocked, block_map)
            if frames:
                frames[-1][3] = True
        else:
            for succ in adjacency[node]:
                block_map.setdefault(succ, set()).add(node)


def _unblock(node: Node, blocked: set[Node], block_map: dict[Node, set[Node]]) -> None:
    """Johnson's UNBLOCK: recursively release vertices waiting on ``node``."""
    work = [node]
    while work:
        current = work.pop()
        if current in blocked:
            blocked.discard(current)
            for waiter in block_map.pop(current, ()):  # vertices blocked on us
                work.append(waiter)
