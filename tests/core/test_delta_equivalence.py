"""Differential equivalence for operation-level (delta) concurrency control.

Delta-CC changes *which* transactions commit, never what committing
means: for every skew and block concurrency, the state the pipeline
commits under ``delta_cc`` must be bit-identical to a serial native
replay of exactly the committed transactions in schedule order.  The
dense pipeline must also stay bit-identical to the string-keyed
reference stages on delta-carrying batches — the delta analogue of
``tests/core/test_fastpath.py``.
"""

from __future__ import annotations

import pytest

from repro.core import NezhaScheduler
from repro.dag import EpochCoordinator, Mempool, ParallelChains, PoWParams
from repro.node import ConcurrentExecutor, FullNode, PipelineConfig
from repro.state import StateDB
from repro.vm.contracts.smallbank import NATIVE_SMALLBANK, default_registry
from repro.vm.logger import LoggedStorage
from repro.workload import SmallBankConfig, SmallBankWorkload, initial_state

from tests.reference import schedule_reference

SKEWS = (0.0, 0.6, 0.9, 0.99)
OMEGAS = (2, 8)
CHAINS = 3
BLOCK_SIZE = 25
SEED = 17


def workload_config(skew):
    return SmallBankConfig(account_count=120, skew=skew, seed=SEED)


def fresh_state(config):
    state = StateDB()
    state.seed(initial_state(config))
    return state


def build_node(skew):
    config = workload_config(skew)
    return FullNode(
        chains=ParallelChains(chain_count=CHAINS, pow_params=PoWParams(6)),
        state=fresh_state(config),
        scheduler=NezhaScheduler(),
        # The static delta classifier reads the assembled bytecode even
        # when execution itself is native.
        registry=default_registry(include_bytecode=True),
        config=PipelineConfig(delta_cc=True),
    )


@pytest.fixture(autouse=True)
def _stash_genesis_root(monkeypatch):
    """Record each node's genesis root so tests can snapshot epoch 0."""
    original = FullNode.__post_init__

    def patched(self):
        original(self)
        self._genesis_root = self.state.root

    monkeypatch.setattr(FullNode, "__post_init__", patched)


def committed_order(node, epoch_txns):
    """Recover the last epoch's committed transactions in commit order.

    Re-runs the delta-promoting executor and the scheduler over the same
    simulated batch (both deterministic) since reports carry no schedule.
    """
    report = node.reports[-1]
    executor = ConcurrentExecutor(registry=node.registry, delta_cc=True)
    previous_root = (
        node.reports[-2].state_root
        if len(node.reports) > 1
        else node._genesis_root
    )
    snapshot = node.state.snapshot(previous_root)
    batch = executor.execute_batch(list(epoch_txns.values()), snapshot.get)
    result = NezhaScheduler().schedule(batch.transactions())
    order = result.schedule.committed
    # SmallBank amounts are small positives against 10k balances, so the
    # commit-time overflow guard never fires and the schedule's commit
    # set IS the committed set.
    assert report.abort_reasons.get("delta_overflow", 0) == 0
    assert report.committed == len(order)
    return [epoch_txns[txid] for txid in order]


class TestSerialReplayEquivalence:
    """Pipeline state under delta-CC == serial native replay, everywhere."""

    @pytest.mark.parametrize("skew", SKEWS)
    def test_state_root_matches_serial_replay(self, skew):
        config = workload_config(skew)
        node = build_node(skew)
        chains = ParallelChains(chain_count=CHAINS, pow_params=node.chains.pow_params)
        coordinator = EpochCoordinator(
            chains=chains, miners=["m0"], block_size=BLOCK_SIZE
        )
        pool = Mempool()
        pool.submit_many(SmallBankWorkload(config).generate(400))

        replay_state = StateDB()
        replay_state.seed(initial_state(config))

        with node:
            for _ in range(2):
                blocks = coordinator.mine_epoch(pool, state_root=node.state_root)
                epoch_txns = {
                    t.txid: t for block in blocks for t in block.transactions
                }
                report = node.receive_epoch(blocks)
                assert report.committed > 0
                for txn in committed_order(node, epoch_txns):
                    storage = LoggedStorage(replay_state.get)
                    receipt = NATIVE_SMALLBANK.call(
                        txn.function, storage, tuple(txn.args)
                    )
                    assert receipt.success
                    for address, value in receipt.rwset.writes.items():
                        replay_state.set(address, value)
                replay_state.commit()
                assert replay_state.root == report.state_root, (
                    f"delta-CC state diverged from serial replay at skew={skew}"
                )

    def test_hot_keys_actually_commute(self):
        """The sweep is vacuous unless deltas commit on contended keys."""
        node = build_node(0.99)
        chains = ParallelChains(chain_count=CHAINS, pow_params=node.chains.pow_params)
        coordinator = EpochCoordinator(
            chains=chains, miners=["m0"], block_size=BLOCK_SIZE
        )
        pool = Mempool()
        pool.submit_many(SmallBankWorkload(workload_config(0.99)).generate(200))
        with node:
            blocks = coordinator.mine_epoch(pool, state_root=node.state_root)
            report = node.receive_epoch(blocks)
        assert report.delta_commuted > 0


class TestPathAgreementOnDeltaBatches:
    """Dense pipeline == reference stages, now with delta units in the batch."""

    @staticmethod
    def assert_identical(fast, ref):
        assert fast.schedule.groups == ref.schedule.groups
        assert fast.schedule.aborted == ref.schedule.aborted
        assert fast.schedule.reordered == ref.schedule.reordered
        entered = fast.dense_acg.batch.addr_ids
        assert fast.rank_order == [a for a in ref.rank_order if a in entered]
        assert fast.schedule.sequences() == ref.schedule.sequences()
        assert fast.delta_commuted == ref.delta_commuted

    @pytest.mark.parametrize("omega", OMEGAS)
    @pytest.mark.parametrize("skew", SKEWS)
    def test_analytic_delta_sweep(self, skew, omega):
        workload = SmallBankWorkload(
            SmallBankConfig(
                account_count=120, skew=skew, seed=SEED, delta_writes=True
            )
        )
        txns = workload.generate(omega * BLOCK_SIZE)
        assert any(txn.rwset.deltas for txn in txns)
        fast = NezhaScheduler().schedule(txns)
        ref = schedule_reference(txns)
        self.assert_identical(fast, ref)

    @pytest.mark.parametrize("skew", SKEWS)
    def test_promoted_delta_sweep(self, skew):
        """Same agreement on rwsets the executor actually promotes."""
        config = workload_config(skew)
        state = fresh_state(config)
        txns = SmallBankWorkload(config).generate(200)
        executor = ConcurrentExecutor(
            registry=default_registry(include_bytecode=True), delta_cc=True
        )
        batch = executor.execute_batch(txns, state.snapshot().get)
        simulated = batch.transactions()
        assert any(txn.rwset.deltas for txn in simulated)
        fast = NezhaScheduler().schedule(simulated)
        ref = schedule_reference(simulated)
        self.assert_identical(fast, ref)
