"""Unit and recovery tests for the persistent block store."""

from __future__ import annotations

import pytest

from repro.dag import (
    BlockStore,
    EpochCoordinator,
    Mempool,
    ParallelChains,
    PoWParams,
    decode_block,
    encode_block,
)
from repro.net import NodeSpec, build_node
from repro.state import StateDB
from repro.storage import LSMStore, MemStore
from repro.workload import SmallBankConfig, SmallBankWorkload

POW = PoWParams(difficulty_bits=6)
CONFIG = SmallBankConfig(account_count=200, skew=0.4, seed=77)


def mine_blocks(epochs=2, chain_count=2, block_size=10, state_root=b"\x01" * 32):
    chains = ParallelChains(chain_count=chain_count, pow_params=POW)
    coordinator = EpochCoordinator(chains=chains, miners=["m"], block_size=block_size)
    pool = Mempool()
    pool.submit_many(SmallBankWorkload(CONFIG).generate(epochs * chain_count * block_size))
    out = []
    for _ in range(epochs):
        out.append(coordinator.mine_epoch(pool, state_root=state_root))
    return out


class TestBlockCodec:
    def test_roundtrip(self):
        block = mine_blocks(epochs=1)[0][0]
        decoded = decode_block(encode_block(block))
        assert decoded.hash == block.hash
        assert decoded.header == block.header
        assert decoded.transactions == block.transactions

    def test_body_integrity_enforced(self):
        from repro.errors import ChainError
        from repro.state.mpt.codec import rlp_decode, rlp_encode
        from repro.txn import encode_transaction, make_transaction

        block = mine_blocks(epochs=1)[0][0]
        header_item, body = rlp_decode(encode_block(block))
        body.append(encode_transaction(make_transaction(999_999, writes=["evil"])))
        with pytest.raises(ChainError):
            decode_block(rlp_encode([header_item, body]))


class TestBlockStore:
    def test_put_get(self):
        store = BlockStore(MemStore())
        block = mine_blocks(epochs=1)[0][0]
        store.put_blocks([block])
        fetched = store.get_block(block.hash)
        assert fetched.hash == block.hash

    def test_missing_block_is_none(self):
        store = BlockStore(MemStore())
        assert store.get_block(b"\x00" * 32) is None
        assert store.block_at(0, 0) is None

    def test_position_index(self):
        store = BlockStore(MemStore())
        for epoch in mine_blocks(epochs=2):
            store.put_blocks(epoch)
        assert store.block_at(0, 1).height == 1
        assert store.block_at(0, 2) is None

    def test_state_root_metadata(self):
        store = BlockStore(MemStore())
        assert store.state_root() is None
        store.set_state_root(b"\x42" * 32)
        assert store.state_root() == b"\x42" * 32

    def test_load_chains_validates(self):
        store = BlockStore(MemStore())
        for epoch in mine_blocks(epochs=3):
            store.put_blocks(epoch)
        chains = store.load_chains(2, POW)
        assert chains.total_blocks() == 6
        assert chains.height(0) == 3


class TestNodeRecovery:
    SPEC = NodeSpec(chain_count=2, workload=CONFIG, pow=POW)

    def test_restart_resumes_processing(self, tmp_path):
        kv = LSMStore(tmp_path / "db")
        node = build_node(self.SPEC, store=kv)

        miner_chains = ParallelChains(chain_count=2, pow_params=POW)
        coordinator = EpochCoordinator(chains=miner_chains, miners=["m"], block_size=10)
        pool = Mempool()
        workload = SmallBankWorkload(CONFIG)
        pool.submit_many(workload.generate(200))

        roots = []
        for _ in range(2):
            blocks = coordinator.mine_epoch(pool, state_root=node.state_root)
            roots.append(node.receive_epoch(blocks).state_root)
        kv.close()

        # --- restart ---
        kv2 = LSMStore(tmp_path / "db")
        blockstore = BlockStore(kv2)
        assert blockstore.state_root() == roots[-1]
        restored = build_node(self.SPEC, store=kv2)
        assert restored.chains.total_blocks() == 4
        assert restored.state_root == roots[-1]

        # The restored node continues from epoch 2.
        blocks = coordinator.mine_epoch(pool, state_root=restored.state_root)
        report = restored.receive_epoch(blocks)
        assert report.epoch_index == 2
        assert report.committed > 0
        kv2.close()

    def test_restored_state_matches_original(self, tmp_path):
        kv = LSMStore(tmp_path / "db")
        node = build_node(self.SPEC, store=kv)
        miner_chains = ParallelChains(chain_count=2, pow_params=POW)
        coordinator = EpochCoordinator(chains=miner_chains, miners=["m"], block_size=10)
        pool = Mempool()
        pool.submit_many(SmallBankWorkload(CONFIG).generate(100))
        blocks = coordinator.mine_epoch(pool, state_root=node.state_root)
        node.receive_epoch(blocks)
        expected = dict(node.state.items())
        kv.close()

        kv2 = LSMStore(tmp_path / "db")
        blockstore = BlockStore(kv2)
        state = StateDB(store=kv2, root=blockstore.state_root())
        assert dict(state.items()) == expected
        kv2.close()
