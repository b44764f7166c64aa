"""Unit tests for parallel chains, epochs, mempool, and the coordinator."""

from __future__ import annotations

import pytest

from repro.dag import (
    EpochCoordinator,
    Mempool,
    ParallelChains,
    PoWParams,
    extract_epoch,
)
from repro.errors import BlockValidationError, ChainError
from repro.txn import make_transaction
from repro.workload import SmallBankConfig, SmallBankWorkload


def make_setup(chain_count=4, block_size=10):
    chains = ParallelChains(chain_count=chain_count, pow_params=PoWParams(difficulty_bits=6))
    coordinator = EpochCoordinator(
        chains=chains, miners=["m0", "m1", "m2"], block_size=block_size
    )
    pool = Mempool()
    workload = SmallBankWorkload(SmallBankConfig(account_count=500, seed=4))
    pool.submit_many(workload.generate(1000))
    return chains, coordinator, pool


class TestMempool:
    def test_fifo_order(self):
        pool = Mempool()
        txns = [make_transaction(i) for i in range(5)]
        pool.submit_many(txns)
        assert [t.txid for t in pool.take(3)] == [0, 1, 2]
        assert [t.txid for t in pool.take(10)] == [3, 4]

    def test_duplicates_rejected(self):
        pool = Mempool()
        assert pool.submit(make_transaction(1))
        assert not pool.submit(make_transaction(1))

    def test_capacity_enforced(self):
        pool = Mempool(capacity=2)
        assert pool.submit_many([make_transaction(i) for i in range(5)]) == 2

    def test_requeue_puts_back_in_front(self):
        pool = Mempool()
        pool.submit_many([make_transaction(i) for i in range(4)])
        taken = pool.take(2)
        pool.requeue(taken)
        assert [t.txid for t in pool.take(4)] == [0, 1, 2, 3]

    def test_invalid_capacity(self):
        with pytest.raises(ChainError):
            Mempool(capacity=0)


class TestEpochMining:
    def test_one_block_per_chain(self):
        chains, coordinator, pool = make_setup()
        blocks = coordinator.mine_epoch(pool, state_root=b"\x02" * 32)
        assert len(blocks) == 4
        assert sorted(block.chain_id for block in blocks) == [0, 1, 2, 3]
        assert all(block.height == 0 for block in blocks)

    def test_epochs_advance_heights(self):
        chains, coordinator, pool = make_setup()
        coordinator.mine_epoch(pool, state_root=b"\x02" * 32)
        blocks = coordinator.mine_epoch(pool, state_root=b"\x03" * 32)
        assert all(block.height == 1 for block in blocks)
        assert chains.total_blocks() == 8

    def test_blocks_carry_state_root(self):
        _, coordinator, pool = make_setup()
        root = b"\x55" * 32
        blocks = coordinator.mine_epoch(pool, state_root=root)
        assert all(block.header.state_root == root for block in blocks)

    def test_partial_concurrency(self):
        chains, coordinator, pool = make_setup()
        blocks = coordinator.mine_epoch(pool, state_root=b"\x02" * 32, concurrency=2)
        assert len(blocks) == 2
        assert sorted(block.chain_id for block in blocks) == [0, 1]

    def test_bad_concurrency_rejected(self):
        _, coordinator, pool = make_setup()
        with pytest.raises(ChainError):
            coordinator.mine_epoch(pool, state_root=b"\x02" * 32, concurrency=99)


class TestValidation:
    def test_foreign_node_accepts_mined_blocks(self):
        chains, coordinator, pool = make_setup()
        observer = ParallelChains(chain_count=4, pow_params=chains.pow_params)
        blocks = coordinator.mine_epoch(pool, state_root=b"\x02" * 32)
        for block in blocks:
            observer.append(block)
        assert observer.total_blocks() == 4

    def test_duplicate_block_rejected(self):
        chains, coordinator, pool = make_setup()
        blocks = coordinator.mine_epoch(pool, state_root=b"\x02" * 32)
        with pytest.raises(BlockValidationError):
            chains.append(blocks[0])

    def test_wrong_height_rejected(self):
        chains, coordinator, pool = make_setup()
        observer = ParallelChains(chain_count=4, pow_params=chains.pow_params)
        coordinator.mine_epoch(pool, state_root=b"\x02" * 32)
        later = coordinator.mine_epoch(pool, state_root=b"\x03" * 32)
        with pytest.raises(BlockValidationError):
            observer.append(later[0])  # observer is still at epoch 0


class TestEpochExtraction:
    def test_extract_and_complete(self):
        chains, coordinator, pool = make_setup()
        coordinator.mine_epoch(pool, state_root=b"\x02" * 32)
        coordinator.mine_epoch(pool, state_root=b"\x03" * 32)
        epoch0 = extract_epoch(chains, 0)
        assert epoch0.concurrency == 4
        assert epoch0.transaction_count == 40
        assert extract_epoch(chains, 1).concurrency == 4

    def test_missing_epoch_is_none(self):
        chains, _, _ = make_setup()
        assert extract_epoch(chains, 0) is None

    def test_duplicate_transactions_deduplicated(self):
        chains, coordinator, _ = make_setup(chain_count=2, block_size=3)
        # Force duplicates by reusing ids across blocks via direct epochs.
        from repro.dag.block import Block, BlockHeader, tips_digest, transactions_root
        from repro.dag.epochs import Epoch

        txns = tuple(make_transaction(i, writes=[f"w{i}"]) for i in range(3))
        headers = [
            BlockHeader(
                chain_id=i,
                height=0,
                parent=b"\x00" * 32,
                state_root=b"\x01" * 32,
                tx_root=transactions_root(txns),
                tips_digest=tips_digest([b"\x00" * 32]),
            )
            for i in range(2)
        ]
        epoch = Epoch(
            index=0,
            blocks=tuple(Block(header=h, transactions=txns) for h in headers),
        )
        assert epoch.transaction_count == 3  # not 6

