"""Placement equivalence for the execution phase.

The in-process loop is the oracle: the worker-process pool must produce
bit-identical simulation batches, schedules, and state roots.  The pool
additionally exercises replica bootstrap, per-epoch write-delta sync,
crash degradation, and the unpicklable-registry / no-state-provider
fallbacks to in-process.
"""

from __future__ import annotations

import time

import pytest

from repro.core import NezhaScheduler
from repro.dag import EpochCoordinator, Mempool, ParallelChains, PoWParams
from repro.errors import ExecutionError
from repro.node import ConcurrentExecutor, FullNode, PipelineConfig
from repro.state import StateDB
from repro.txn import Transaction
from repro.vm.contracts import default_registry
from repro.vm.native import ContractRegistry, NativeContract, registry_is_picklable
from repro.workload import (
    SmallBankConfig,
    SmallBankWorkload,
    flatten_blocks,
    initial_state,
)

WORKLOAD_CONFIG = SmallBankConfig(account_count=250, skew=0.6, seed=23)

WORKER_SWEEP = [0, 1, 2, 4]


def fresh_state() -> StateDB:
    state = StateDB()
    state.seed(initial_state(WORKLOAD_CONFIG))
    return state


def epoch_batch(omega: int = 3, block_size: int = 40) -> list[Transaction]:
    workload = SmallBankWorkload(WORKLOAD_CONFIG)
    return flatten_blocks(workload.generate_blocks(omega, block_size))


def make_executor(workers: int, state: StateDB) -> ConcurrentExecutor:
    return ConcurrentExecutor(
        registry=default_registry(),
        workers=workers,
        state_provider=lambda: dict(state.items()),
    )


def batch_fingerprint(batch):
    return [
        (r.txid, r.status, dict(r.rwset.reads), dict(r.rwset.writes))
        for r in batch.results
    ]


class TestExecutorEquivalence:
    @pytest.mark.parametrize("workers", WORKER_SWEEP)
    def test_batch_matches_in_process_oracle(self, workers):
        state = fresh_state()
        txns = epoch_batch()
        snapshot = state.snapshot()
        oracle = ConcurrentExecutor(registry=default_registry())
        expected = batch_fingerprint(oracle.execute_batch(txns, snapshot.get))
        with make_executor(workers, state) as executor:
            got = batch_fingerprint(executor.execute_batch(txns, snapshot.get))
            assert executor.process_active == (workers > 1)
        assert got == expected

    def test_abort_sets_identical_across_placements(self):
        state = fresh_state()
        txns = epoch_batch()
        snapshot = state.snapshot()
        aborts = {}
        for workers in (0, 2):
            with make_executor(workers, state) as executor:
                batch = executor.execute_batch(txns, snapshot.get)
            result = NezhaScheduler().schedule(batch.transactions())
            aborts[workers] = tuple(result.schedule.aborted)
        assert aborts[0] == aborts[2]


def mine_shared_epochs(epochs: int, block_size: int = 30):
    """Mine one sequence of epochs every node under test will replay."""
    pow_params = PoWParams(6)
    chains = ParallelChains(chain_count=3, pow_params=pow_params)
    coordinator = EpochCoordinator(chains=chains, miners=["m0"], block_size=block_size)
    pool = Mempool()
    pool.submit_many(SmallBankWorkload(WORKLOAD_CONFIG).generate(epochs * 3 * block_size + 60))
    state = fresh_state()
    root = state.root
    # Blocks carry the previous epoch's root; replay once on a probe node
    # to learn each epoch's root, then hand identical blocks to everyone.
    probe = FullNode(
        chains=ParallelChains(chain_count=3, pow_params=pow_params),
        state=state,
        scheduler=NezhaScheduler(),
        registry=default_registry(),
    )
    all_blocks = []
    for _ in range(epochs):
        blocks = coordinator.mine_epoch(pool, state_root=root)
        all_blocks.append(blocks)
        root = probe.receive_epoch(blocks).state_root
    probe.close()
    return pow_params, all_blocks


class TestNodeLevelEquivalence:
    def test_three_epoch_sweep_identical_reports(self):
        pow_params, all_blocks = mine_shared_epochs(epochs=3)
        fingerprints = []
        for workers in (0, 4):
            node = FullNode(
                chains=ParallelChains(chain_count=3, pow_params=pow_params),
                state=fresh_state(),
                scheduler=NezhaScheduler(),
                registry=default_registry(),
                config=PipelineConfig(workers=workers),
            )
            with node:
                reports = [node.receive_epoch(blocks) for blocks in all_blocks]
            fingerprints.append(
                [
                    (r.state_root, r.committed, r.aborted, r.failed_simulation,
                     r.input_transactions, r.commit_group_count)
                    for r in reports
                ]
            )
        assert fingerprints[0] == fingerprints[1]

    def test_process_pool_actually_engaged(self):
        """Guard against the sweep silently testing a fallen-back pool."""
        pow_params, all_blocks = mine_shared_epochs(epochs=1)
        node = FullNode(
            chains=ParallelChains(chain_count=3, pow_params=pow_params),
            state=fresh_state(),
            scheduler=NezhaScheduler(),
            registry=default_registry(),
            config=PipelineConfig(workers=2),
        )
        with node:
            node.receive_epoch(all_blocks[0])
            assert node.pipeline.executor.resolved_backend == "process"
            assert node.pipeline.executor.process_active


class TestProcessDegradation:
    def test_worker_crash_degrades_to_in_process(self):
        state = fresh_state()
        txns = epoch_batch()
        snapshot = state.snapshot()
        oracle = ConcurrentExecutor(registry=default_registry())
        expected = batch_fingerprint(oracle.execute_batch(txns, snapshot.get))
        with make_executor(2, state) as executor:
            first = batch_fingerprint(executor.execute_batch(txns, snapshot.get))
            assert first == expected
            assert executor.resolved_backend == "process"
            # Kill one worker between epochs; the next batch must still
            # produce oracle-identical results via the in-process fallback.
            executor._process_pool._processes[0].kill()
            time.sleep(0.05)
            second = batch_fingerprint(executor.execute_batch(txns, snapshot.get))
            assert second == expected
            assert executor.resolved_backend == "in-process"
            assert not executor.process_active

    def test_unpicklable_registry_falls_back(self):
        registry = ContractRegistry()
        registry.register_native(
            NativeContract(
                name="closure",
                functions={"noop": lambda storage, args, caller=0: 1},
            )
        )
        assert not registry_is_picklable(registry)
        state = fresh_state()
        executor = ConcurrentExecutor(
            registry=registry,
            workers=4,
            state_provider=lambda: dict(state.items()),
        )
        with executor:
            assert executor.resolved_backend == "in-process"
            txn = Transaction(txid=1, contract="closure", function="noop", args=())
            batch = executor.execute_batch([txn], state.get)
            assert batch.results[0].ok

    def test_missing_state_provider_falls_back(self):
        executor = ConcurrentExecutor(registry=default_registry(), workers=4)
        with executor:
            assert executor.resolved_backend == "in-process"
            batch = executor.execute_batch(epoch_batch(), fresh_state().get)
            assert not executor.process_active
            assert len(batch.results) == len(epoch_batch())

    def test_workers_leq_one_is_in_process(self):
        state = fresh_state()
        with make_executor(1, state) as executor:
            assert executor.resolved_backend == "in-process"

    def test_deterministic_contract_error_still_raises(self):
        state = fresh_state()
        with make_executor(2, state) as executor:
            bad = Transaction(txid=1, contract="missing", function="f", args=())
            with pytest.raises(ExecutionError):
                executor.execute_batch([bad], state.get)
            # The pool survives a deterministic failure.
            assert executor.resolved_backend == "process"


class TestDeltaSync:
    def test_replicas_track_commits_across_epochs(self):
        """Epoch 2 must observe epoch 1's commits through the delta sync.

        The node-level sweep covers this end to end; this test isolates
        the mechanism: after apply_delta the workers' reads change, and
        without it they would still see the bootstrap values.
        """
        state = fresh_state()
        with make_executor(2, state) as executor:
            probe = Transaction(
                txid=7, contract="smallbank", function="getBalance", args=(1,)
            )
            before = executor.execute_batch([probe], state.snapshot().get)
            baseline = before.results[0].return_value
            executor.apply_delta({"sav:000001": 1_000_000})
            after = executor.execute_batch([probe], state.snapshot().get)
            assert after.results[0].return_value == baseline + 1_000_000 - (
                before.results[0].rwset.reads["sav:000001"]
            )

    def test_mark_stale_resyncs_from_state(self):
        state = fresh_state()
        with make_executor(2, state) as executor:
            probe = Transaction(
                txid=9, contract="smallbank", function="getBalance", args=(2,)
            )
            executor.execute_batch([probe], state.snapshot().get)
            # Mutate state outside the committer, as re-execution paths do.
            state.set("sav:000002", 777_000)
            state.commit()
            executor.mark_stale()
            batch = executor.execute_batch([probe], state.snapshot().get)
            assert batch.results[0].rwset.reads["sav:000002"] == 777_000
