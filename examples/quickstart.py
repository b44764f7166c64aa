#!/usr/bin/env python
"""Quickstart: schedule the paper's six-transaction example with Nezha.

Walks through the exact example of Sections IV-B and IV-C (Table III,
Figures 4, 6, and 7): schedules it once, then prints what each step
produced — the address-based conflict graph, the sorting ranks, and the
commit schedule, including the unserializable transaction T1 that Nezha
detects and aborts without any cycle detection.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import NezhaScheduler, make_transaction
from repro.baselines import CGScheduler, OCCScheduler


def paper_example():
    """Table III: the addresses read and written by T1..T6."""
    return [
        make_transaction(1, reads=["A2"], writes=["A1"]),
        make_transaction(2, reads=["A3"], writes=["A2"]),
        make_transaction(3, reads=["A4"], writes=["A2"]),
        make_transaction(4, reads=["A4"], writes=["A3"]),
        make_transaction(5, reads=["A4"], writes=["A4"]),
        make_transaction(6, reads=["A1"], writes=["A3"]),
    ]


def main() -> None:
    transactions = paper_example()

    result = NezhaScheduler().schedule(transactions)

    print("=== Step 1: address-based conflict graph (Figure 4) ===")
    acg = result.acg
    for address in acg.addresses:
        print(f"  RW_{address}: {acg.rw_lists[address]!r}")
    print(f"  address dependencies: {sorted(acg.iter_edges())}")

    print("\n=== Step 2: sorting rank division (Figure 6) ===")
    for rank, address in enumerate(result.rank_order, start=1):
        print(f"  rank {rank}: {address}")

    print("\n=== Step 3: hierarchical sorting (Figure 7) ===")
    schedule = result.schedule
    for group in schedule.groups:
        members = ", ".join(f"T{t}" for t in group.txids)
        print(f"  sequence {group.sequence}: commit concurrently [{members}]")
    print(f"  aborted (unserializable): {[f'T{t}' for t in schedule.aborted]}")
    print(f"  commit concurrency: {schedule.mean_group_size:.2f} txns/group")

    print("\n=== Comparison with the baselines ===")
    cg = CGScheduler().schedule(transactions)
    occ = OCCScheduler().schedule(transactions)
    print(f"  CG  : serial order {cg.schedule.committed}, aborted {cg.schedule.aborted}, "
          f"{cg.cycle_count} cycles enumerated")
    print(f"  OCC : serial order {occ.schedule.committed}, aborted {occ.schedule.aborted}")
    print(f"  Nezha spent {result.timings.total * 1000:.2f} ms "
          f"(construction {result.timings.graph_construction * 1000:.2f} ms, "
          f"rank {result.timings.rank_division * 1000:.2f} ms, "
          f"sorting {result.timings.transaction_sorting * 1000:.2f} ms)")


if __name__ == "__main__":
    main()
