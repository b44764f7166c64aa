"""End-to-end cluster run over an LSM-backed trie-node store.

The measuring node's flat state journals account values but still seals
epochs into the Merkle trie, whose nodes live in a pluggable ``KVStore``.
Swapping the default in-memory store for the LSM store (WAL + memtable +
SSTables) must not change a single committed root — storage is below the
state commitment, never part of it.
"""

from __future__ import annotations

import pytest

from repro.net import Cluster, ClusterConfig, NodeSpec
from repro.node import PipelineConfig
from repro.storage.lsm import LSMStore
from repro.workload import SmallBankConfig

EPOCHS = 3


def small_cluster(store=None, **pipeline):
    spec = NodeSpec(
        chain_count=2,
        workload=SmallBankConfig(account_count=500, seed=5),
        pipeline=PipelineConfig(**pipeline),
    )
    return Cluster(spec, ClusterConfig(block_size=20), store=store)


def _roots(cluster: Cluster) -> list[str]:
    with cluster:
        run = cluster.run_epochs(EPOCHS)
    return [outcome.report.state_root.hex() for outcome in run.outcomes]


class TestClusterOverLSM:
    def test_lsm_roots_match_memstore(self, tmp_path):
        """FlatStateDB over LSM vs. the default MemStore: same roots."""
        store = LSMStore(tmp_path / "lsm", flush_bytes=16 * 1024)
        lsm_roots = _roots(small_cluster(store))
        mem_roots = _roots(small_cluster())
        assert lsm_roots == mem_roots
        assert len(lsm_roots) == EPOCHS

    def test_lsm_streaming_roots_match_memstore_barrier(self, tmp_path):
        """Streaming node over LSM == barrier node over MemStore."""
        store = LSMStore(tmp_path / "lsm", flush_bytes=16 * 1024)
        streaming_roots = _roots(small_cluster(store, streaming=True))
        barrier_roots = _roots(small_cluster())
        assert streaming_roots == barrier_roots

    def test_trie_nodes_persist_in_the_lsm(self, tmp_path):
        """The sealed trie's nodes actually land in the LSM directory."""
        directory = tmp_path / "lsm"
        store = LSMStore(directory, flush_bytes=4 * 1024)
        cluster = small_cluster(store)
        with cluster:
            run = cluster.run_epochs(EPOCHS)
        assert run.committed > 0
        # Node keys carry the KVNodeMapping "n:" prefix; the sealed
        # root's node must be retrievable from the LSM by its hash.
        root = cluster.node.state_root
        assert store.get(b"n:" + root) is not None
        assert directory.exists()

    @pytest.mark.parametrize("replicas", [1, 2])
    def test_reopened_store_resumes(self, tmp_path, replicas):
        """Close after two epochs, reopen the store: the third epoch is
        epoch 2, extends the archived tips, and re-runs no archived txn.
        A second, in-memory replica catches up from the archive first."""
        directory = tmp_path / "lsm"
        with small_cluster(LSMStore(directory, flush_bytes=16 * 1024)) as cluster:
            first = cluster.run_epochs(2)
        assert len(first.outcomes) == 2
        archived = {
            txn.txid
            for block in cluster.node.chains.blocks.values()
            for txn in block.transactions
        }
        tips = cluster.node.chains.tips()
        reopened = Cluster(
            cluster.spec,
            ClusterConfig(replica_count=replicas, block_size=20),
            store=LSMStore(directory, flush_bytes=16 * 1024),
        )
        with reopened:
            run = reopened.run_epochs(1)
            blocks = [
                reopened.node.chains.block_at(chain_id, 2) for chain_id in range(2)
            ]
        report = run.outcomes[0].report
        assert report.epoch_index == 2
        assert report.committed > 0
        assert run.all_agreed
        assert [block.header.parent for block in blocks] == tips
        assert not archived & {t.txid for block in blocks for t in block.transactions}
