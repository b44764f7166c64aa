#!/usr/bin/env python
"""Token economy under contention: hot wallets and the supply counter.

A second smart-contract workload on top of the Nezha pipeline: an
ERC20-style token where Zipfian skew concentrates transfers on a few hot
wallets (think exchanges) and every ``mint`` touches the global supply
counter — a worst-case hot address.  Shows how each concurrency-control
scheme copes as the mint share of the workload grows.

Run:  python examples/token_transfers.py
"""

from __future__ import annotations

from repro.bench import run_scheme
from repro.core import NezhaScheduler
from repro.node import Committer, ConcurrentExecutor, make_scheme
from repro.state import StateDB
from repro.vm.contracts import register_token
from repro.vm.native import ContractRegistry
from repro.workload import TokenConfig, TokenWorkload, flatten_blocks, initial_token_state


def contention_sweep() -> None:
    print("=== Scheme behaviour on the token workload ===")
    header = (
        f"{'skew':>5} {'scheme':<16} {'committed':>9} {'aborted':>7} "
        f"{'groups':>6} {'latency (ms)':>12}"
    )
    print(header)
    print("-" * len(header))
    for skew in (0.2, 0.8, 1.2):
        config = TokenConfig(holder_count=1_000, skew=skew, seed=11)
        txns = flatten_blocks(TokenWorkload(config).generate_blocks(4, 50))
        for scheme_name in ("occ", "pcc", "nezha"):
            run = run_scheme(make_scheme(scheme_name), txns)
            print(
                f"{skew:>5} {scheme_name:<16} {run.schedule.committed_count:>9} "
                f"{run.schedule.aborted_count:>7} {len(run.schedule.groups):>6} "
                f"{run.total_seconds * 1000:>12.2f}"
            )
        print()


def end_to_end() -> None:
    print("=== One epoch end-to-end with conservation checking ===")
    config = TokenConfig(holder_count=500, skew=0.9, seed=3)
    registry = ContractRegistry()
    register_token(registry)

    state = StateDB()
    state.seed(initial_token_state(config))
    supply_before = state.get("sup:total")
    holders_before = sum(
        value for address, value in state.items() if address.startswith("bal:")
    )

    txns = flatten_blocks(TokenWorkload(config).generate_blocks(3, 60))
    executor = ConcurrentExecutor(registry=registry)
    batch = executor.execute_batch(txns, state.snapshot().get)
    result = NezhaScheduler().schedule(batch.transactions())
    Committer().commit(result.schedule, batch.write_values(), state)

    supply_after = state.get("sup:total")
    holders_after = sum(
        value for address, value in state.items() if address.startswith("bal:")
    )
    minted = holders_after - holders_before
    print(f"  committed {result.schedule.committed_count} of {len(txns)} "
          f"({result.schedule.aborted_count} aborted by concurrency control, "
          f"{batch.failed_count} reverted)")
    print(f"  token conservation: holder balances grew by {minted} "
          f"(mints), supply counter grew by {supply_after - supply_before}")
    assert minted == supply_after - supply_before, "conservation violated!"
    print("  supply counter matches the sum of balances: no value created "
          "or destroyed by concurrent commits")


def main() -> None:
    contention_sweep()
    end_to_end()


if __name__ == "__main__":
    main()
