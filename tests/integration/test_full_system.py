"""Whole-system integration: mixed contracts, persistence, metrics.

Drives the complete stack — two contracts in the same epochs, LSM-backed
state and block archive, metrics — across several epochs, then restarts
the node from disk and keeps going.  This is the closest the test suite
comes to the paper's deployed system.
"""

from __future__ import annotations

import pytest

from repro.core import NezhaScheduler
from repro.dag import BlockStore, EpochCoordinator, Mempool, ParallelChains, PoWParams
from repro.node import FullNode
from repro.obs import node_families, parse_prometheus, render_prometheus
from repro.state import StateDB
from repro.storage import LSMStore
from repro.vm.contracts import default_registry, register_token
from repro.workload import (
    SmallBankConfig,
    SmallBankWorkload,
    TokenConfig,
    TokenWorkload,
    initial_state,
    initial_token_state,
)

POW = PoWParams(difficulty_bits=6)
BANK_CONFIG = SmallBankConfig(account_count=150, skew=0.6, seed=71)
TOKEN_CONFIG = TokenConfig(holder_count=150, skew=0.6, seed=71)


@pytest.fixture
def mixed_workload():
    """Interleaves SmallBank and token transactions with one global id space."""
    bank = SmallBankWorkload(BANK_CONFIG)
    token = TokenWorkload(TOKEN_CONFIG)
    counter = iter(range(1_000_000))

    def generate(count):
        out = []
        for index in range(count):
            source = bank if index % 2 == 0 else token
            txn = source.generate(1)[0]
            out.append(
                type(txn)(
                    txid=next(counter),
                    rwset=txn.rwset,
                    sender=txn.sender,
                    contract=txn.contract,
                    function=txn.function,
                    args=txn.args,
                )
            )
        return out

    return generate


def build_registry():
    registry = default_registry()
    register_token(registry)
    return registry


def seed_state(state: StateDB) -> bytes:
    values = dict(initial_state(BANK_CONFIG))
    values.update(initial_token_state(TOKEN_CONFIG))
    return state.seed(values)


class TestMixedContractEpochs:
    def test_epochs_with_both_contracts(self, tmp_path, mixed_workload):
        kv = LSMStore(tmp_path / "db")
        state = StateDB(store=kv)
        seed_state(state)
        node = FullNode(
            chains=ParallelChains(chain_count=2, pow_params=POW),
            state=state,
            scheduler=NezhaScheduler(),
            registry=build_registry(),
            blockstore=BlockStore(kv),
        )
        chains = ParallelChains(chain_count=2, pow_params=POW)
        coordinator = EpochCoordinator(chains=chains, miners=["m0", "m1"], block_size=20)
        pool = Mempool()
        pool.submit_many(mixed_workload(300))

        roots = []
        for _ in range(3):
            blocks = coordinator.mine_epoch(pool, state_root=node.state_root)
            report = node.receive_epoch(blocks)
            roots.append(report.state_root)
            assert report.committed > 0
        assert len(set(roots)) == 3
        rendered = parse_prometheus(render_prometheus(node_families(node.reports)))
        assert rendered["epochs_total"]["samples"][0][2] == 3

        # Both contracts actually executed.
        functions = {
            txn.contract
            for block_hash, block in node.chains.blocks.items()
            for txn in block.transactions
        }
        assert functions == {"smallbank", "token"}
        kv.close()

        # --- restart from disk and continue ---
        kv2 = LSMStore(tmp_path / "db")
        archive = BlockStore(kv2)
        assert archive.state_root() == roots[-1]
        restored = FullNode.restore(
            kv2, NezhaScheduler(), 2, registry=build_registry(), pow_params=POW
        )
        assert restored.state_root == roots[-1]
        blocks = coordinator.mine_epoch(pool, state_root=restored.state_root)
        report = restored.receive_epoch(blocks)
        assert report.epoch_index == 3
        assert report.committed > 0
        kv2.close()

    def test_mixed_epochs_agree_across_replicas(self, mixed_workload):
        nodes = []
        for _ in range(2):
            state = StateDB()
            seed_state(state)
            nodes.append(
                FullNode(
                    chains=ParallelChains(chain_count=2, pow_params=POW),
                    state=state,
                    scheduler=NezhaScheduler(),
                    registry=build_registry(),
                )
            )
        chains = ParallelChains(chain_count=2, pow_params=POW)
        coordinator = EpochCoordinator(chains=chains, miners=["m"], block_size=25)
        pool = Mempool()
        pool.submit_many(mixed_workload(200))
        for _ in range(2):
            blocks = coordinator.mine_epoch(pool, state_root=nodes[0].state_root)
            reports = [node.receive_epoch(blocks) for node in nodes]
            assert reports[0].state_root == reports[1].state_root
