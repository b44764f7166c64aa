#!/usr/bin/env python
"""SmallBank on the SVM: contract execution with read/write logging.

Demonstrates the execution layer the paper builds on top of OHIE:

1. assembles the SmallBank contract from SVM assembly;
2. runs a handful of banking transactions through the bytecode
   interpreter *and* the native twin, showing identical receipts;
3. speculatively executes a contended batch against one state snapshot,
   schedules it with Nezha, commits, and verifies the final MPT state
   root against a serial replay.

Run:  python examples/smallbank_demo.py
"""

from __future__ import annotations

from repro.core import NezhaScheduler
from repro.node import Committer, ConcurrentExecutor
from repro.state import StateDB
from repro.txn import Transaction
from repro.vm import ExecutionContext, LoggedStorage, SVM, disassemble
from repro.vm.contracts import (
    NATIVE_SMALLBANK,
    compile_smallbank,
    default_registry,
    smallbank_key_renderer,
)
from repro.workload import (
    SmallBankConfig,
    SmallBankWorkload,
    flatten_blocks,
    initial_state,
)


def show_bytecode() -> None:
    print("=== SmallBank 'sendPayment' bytecode (SVM assembly) ===")
    code = compile_smallbank()["sendPayment"]
    for line in disassemble(code)[:12]:
        print(f"  {line}")
    print(f"  ... {len(code)} bytes total")


def run_one_call() -> None:
    print("\n=== One call, bytecode vs native ===")
    state = {"chk:000001": 500, "chk:000002": 100}
    code = compile_smallbank()["sendPayment"]

    vm_storage = LoggedStorage(lambda a: state.get(a, 0))
    receipt_vm = SVM().execute(
        code,
        ExecutionContext(
            storage=vm_storage, args=(1, 2, 150), key_renderer=smallbank_key_renderer
        ),
    )
    native_storage = LoggedStorage(lambda a: state.get(a, 0))
    receipt_native = NATIVE_SMALLBANK.call("sendPayment", native_storage, (1, 2, 150))

    print(f"  VM     : ok={receipt_vm.success} gas={receipt_vm.gas_used} "
          f"writes={dict(receipt_vm.rwset.writes)}")
    print(f"  native : ok={receipt_native.success} "
          f"writes={dict(receipt_native.rwset.writes)}")
    assert dict(receipt_vm.rwset.writes) == dict(receipt_native.rwset.writes)


def run_contended_epoch() -> None:
    print("\n=== A contended epoch end-to-end ===")
    config = SmallBankConfig(account_count=200, skew=0.8, seed=7)
    state = StateDB()
    state.seed(initial_state(config))
    snapshot_root = state.root

    workload = SmallBankWorkload(config)
    transactions = flatten_blocks(workload.generate_blocks(4, 50))
    print(f"  generated {len(transactions)} transactions over "
          f"{config.account_count} accounts (skew {config.skew})")

    executor = ConcurrentExecutor(registry=default_registry(), use_vm=True)
    snapshot = state.snapshot()
    batch = executor.execute_batch(transactions, snapshot.get, snapshot_root)
    print(f"  speculative execution: {len(batch.successful())} ok, "
          f"{batch.failed_count} reverted (overdrafts)")

    result = NezhaScheduler().schedule(batch.transactions())
    schedule = result.schedule
    print(f"  nezha: {schedule.committed_count} committed in "
          f"{len(schedule.groups)} concurrent groups, "
          f"{schedule.aborted_count} aborted, "
          f"{len(schedule.reordered)} rescued by reordering, "
          f"{sum(result.phase_seconds().values()) * 1000:.1f} ms")

    report = Committer().commit(schedule, batch.write_values(), state)
    print(f"  committed; new state root {report.state_root.hex()[:16]}...")

    # Verify by *re-executing* the committed transactions one at a time,
    # serially, against live state: the roots must agree (serializability).
    replay = StateDB()
    replay.seed(initial_state(config))
    by_id = {t.txid: t for t in transactions}
    for txid in schedule.committed:
        txn = by_id[txid]
        storage = LoggedStorage(replay.get)
        receipt = NATIVE_SMALLBANK.call(txn.function, storage, tuple(txn.args))
        assert receipt.success, f"T{txid} unexpectedly reverted in serial replay"
        for address, value in receipt.rwset.writes.items():
            replay.set(address, value)
    replay.commit()
    assert replay.root == report.state_root
    print("  serial re-execution reproduces the same root: the schedule is "
          "equivalent to a serial execution")


def main() -> None:
    show_bytecode()
    run_one_call()
    run_contended_epoch()


if __name__ == "__main__":
    main()
