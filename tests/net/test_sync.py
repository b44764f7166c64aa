"""Catch-up sync tests: a lagging replica converges via the archive."""

from __future__ import annotations

import pytest

from repro.dag import BlockStore, EpochCoordinator, Mempool, ParallelChains, PoWParams
from repro.errors import NetworkError
from repro.net import NodeSpec, build_node, sync_from_archive
from repro.storage import MemStore
from repro.workload import SmallBankConfig, SmallBankWorkload

SPEC = NodeSpec(
    chain_count=2,
    workload=SmallBankConfig(account_count=250, skew=0.5, seed=90),
    pow=PoWParams(difficulty_bits=6),
)


@pytest.fixture
def network():
    """An up-to-date node with an archive, plus the mining side."""
    leader = build_node(SPEC, store=MemStore())
    archive = leader.blockstore
    chains = ParallelChains(chain_count=SPEC.chain_count, pow_params=SPEC.pow)
    coordinator = EpochCoordinator(chains=chains, miners=["m"], block_size=15)
    pool = Mempool()
    pool.submit_many(SmallBankWorkload(SPEC.workload).generate(400))

    def advance(epochs):
        for _ in range(epochs):
            blocks = coordinator.mine_epoch(pool, state_root=leader.state_root)
            leader.receive_epoch(blocks)

    return leader, archive, advance


class TestSync:
    def test_offline_replica_catches_up(self, network):
        leader, archive, advance = network
        advance(4)
        replica = build_node(SPEC)
        report = sync_from_archive(replica, archive)
        assert report.start_epoch == 0
        assert report.epochs_applied == 4
        assert replica.state_root == leader.state_root
        assert replica.committed_total == leader.committed_total

    def test_partial_sync_with_limit(self, network):
        leader, archive, advance = network
        advance(4)
        replica = build_node(SPEC)
        report = sync_from_archive(replica, archive, max_epochs=2)
        assert report.epochs_applied == 2
        assert replica.next_epoch == 2
        # Finish the job.
        sync_from_archive(replica, archive)
        assert replica.state_root == leader.state_root

    def test_sync_on_current_node_is_noop(self, network):
        leader, archive, advance = network
        advance(2)
        report = sync_from_archive(leader, archive)
        assert report.epochs_applied == 0

    def test_synced_replica_continues_live(self, network):
        leader, archive, advance = network
        advance(2)
        replica = build_node(SPEC)
        sync_from_archive(replica, archive)
        # New live epoch processed identically on both.
        advance(1)
        replica_report = sync_from_archive(replica, archive)
        assert replica_report.epochs_applied == 1
        assert replica.state_root == leader.state_root

    def test_corrupt_block_bytes_rejected(self, network):
        leader, archive, advance = network
        advance(2)
        # Tamper with the stored bytes of one archived block.
        store = archive._store
        block_hash = store.get(BlockStore._position_key(0, 0))
        data = bytearray(store.get(b"b:" + block_hash))
        data[len(data) // 2] ^= 0xFF
        store.put(b"b:" + block_hash, bytes(data))
        replica = build_node(SPEC)
        with pytest.raises(NetworkError):
            sync_from_archive(replica, archive)

    def test_forged_block_substitution_rejected(self, network):
        """Replacing an archived block with a different (valid) block from
        another position must fail validation at the node."""
        leader, archive, advance = network
        advance(2)
        store = archive._store
        # Point epoch-0/chain-0 at the epoch-1/chain-0 block.
        later = store.get(BlockStore._position_key(0, 1))
        store.put(BlockStore._position_key(0, 0), later)
        replica = build_node(SPEC)
        with pytest.raises(NetworkError):
            sync_from_archive(replica, archive)
