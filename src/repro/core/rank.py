"""Sorting-rank division (Algorithm 1 of the paper).

Addresses are ranked by a cycle-tolerant topological sort over the
address-dependency graph extracted from the ACG:

* while a zero in-degree vertex exists, emit the one with the smallest
  address (the paper iterates vertices in order and takes the first);
* otherwise (only cycles remain) emit, among the vertices with the minimum
  in-degree, the one with the maximum out-degree, breaking ties by the
  smallest address ("most dependencies first" — its sorting result affects
  the most other addresses).

The paper presents the algorithm recursively; we implement it iteratively
with two lazily-invalidated heaps — one for the zero in-degree frontier,
one keyed ``(in_degree, -score, address)`` for cycle breaking — so the
whole division runs in ``O((V + E) log V)``.  A naive per-pick scan is
``O(V)`` per cycle pick and measurably quadratic on contended batches
(see ``benchmarks/bench_scaling.py``).
"""

from __future__ import annotations

import enum
import heapq

from repro.core.acg import DenseACG


class RankPolicy(enum.Enum):
    """How Algorithm 1 breaks cycles when no zero in-degree vertex exists.

    The paper's choice is ``MAX_OUT_DEGREE`` ("prioritise the address with
    the most dependencies"); the alternatives exist for the ablation
    benchmark that quantifies how much that choice matters.
    """

    MAX_OUT_DEGREE = "max-out-degree"
    MIN_ADDRESS = "min-address"
    MAX_UNIT_COUNT = "max-unit-count"


def divide_ranks_dense(
    dense: DenseACG, policy: RankPolicy = RankPolicy.MAX_OUT_DEGREE
) -> list[int]:
    """Algorithm 1 on dense address ids; returns them in rank order.

    Vertices are contiguous ints, degrees live in flat lists, and
    adjacency comes from the CSR buffers — no per-vertex set copies.
    Because dense ids are assigned in sorted address order, every heap
    comparison breaks ties by the smaller address, as the paper does, so
    the emission order after id -> address translation equals the
    string-keyed reference ranker's (``tests/reference.py``).
    """
    addr_count = dense.addr_count
    out_indptr, out_ids = dense.out_indptr, dense.out_ids
    in_indptr, in_ids = dense.in_indptr, dense.in_ids
    in_degree = [in_indptr[v + 1] - in_indptr[v] for v in range(addr_count)]
    out_degree = [out_indptr[v + 1] - out_indptr[v] for v in range(addr_count)]

    if policy is RankPolicy.MIN_ADDRESS:
        score = [0] * addr_count
    elif policy is RankPolicy.MAX_UNIT_COUNT:
        read_indptr, write_indptr = dense.read_indptr, dense.write_indptr
        delta_indptr = dense.delta_indptr
        score = [
            (read_indptr[v + 1] - read_indptr[v])
            + (write_indptr[v + 1] - write_indptr[v])
            + (delta_indptr[v + 1] - delta_indptr[v])
            for v in range(addr_count)
        ]
    else:
        score = out_degree  # live out-degree, shared list updated in place

    alive = bytearray(b"\x01") * addr_count
    zero_heap = [v for v in range(addr_count) if in_degree[v] == 0]
    # The cycle-breaking heap is built lazily, the first time the zero
    # in-degree frontier runs dry: the pick only depends on the *current*
    # (in-degree, -score) of live vertices, so deferring construction (and
    # the per-degree-change refresh pushes) until a cycle actually has to
    # be broken changes nothing about which vertex is selected.  On
    # mostly-acyclic batches this skips the O(E log V) heap traffic
    # entirely.
    cycle_heap: list[tuple[int, int, int]] | None = None
    sequence: list[int] = []
    track_score = policy is RankPolicy.MAX_OUT_DEGREE
    push = heapq.heappush

    def remove(vertex: int) -> None:
        alive[vertex] = 0
        sequence.append(vertex)
        for succ in out_ids[out_indptr[vertex] : out_indptr[vertex + 1]]:
            if not alive[succ]:
                continue
            degree = in_degree[succ] = in_degree[succ] - 1
            if degree == 0:
                push(zero_heap, succ)
            if cycle_heap is not None:
                push(cycle_heap, (degree, -score[succ], succ))
        if track_score:
            for pred in in_ids[in_indptr[vertex] : in_indptr[vertex + 1]]:
                if not alive[pred]:
                    continue
                out_degree[pred] -= 1
                if cycle_heap is not None:
                    push(cycle_heap, (in_degree[pred], -score[pred], pred))

    while len(sequence) < addr_count:
        selected = _pop_zero_dense(zero_heap, alive, in_degree)
        if selected is None:
            if cycle_heap is None:
                cycle_heap = [
                    (in_degree[v], -score[v], v)
                    for v in range(addr_count)
                    if alive[v]
                ]
                heapq.heapify(cycle_heap)
            selected = _pop_cycle_breaker_dense(cycle_heap, alive, in_degree, score)
        remove(selected)
    return sequence


def _pop_zero_dense(
    zero_heap: list[int], alive: bytearray, in_degree: list[int]
) -> int | None:
    """Pop the smallest live zero in-degree vertex id, or ``None``."""
    while zero_heap:
        vertex = heapq.heappop(zero_heap)
        if not alive[vertex] or in_degree[vertex] != 0:
            continue
        return vertex
    return None


def _pop_cycle_breaker_dense(
    cycle_heap: list[tuple[int, int, int]],
    alive: bytearray,
    in_degree: list[int],
    score: list[int],
) -> int:
    """Pop the live entry with minimum (in-degree, -score, id)."""
    while cycle_heap:
        recorded_in, negative_score, vertex = heapq.heappop(cycle_heap)
        if not alive[vertex]:
            continue
        if recorded_in != in_degree[vertex] or -negative_score != score[vertex]:
            continue  # stale entry; a fresh one exists
        return vertex
    raise AssertionError("graph unexpectedly empty")

