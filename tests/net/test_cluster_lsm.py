"""End-to-end cluster run over an LSM-backed trie-node store.

The measuring node's flat state journals account values but still seals
epochs into the Merkle trie, whose nodes live in a pluggable ``KVStore``.
Swapping the default in-memory store for the LSM store (WAL + memtable +
SSTables) must not change a single committed root — storage is below the
state commitment, never part of it.
"""

from __future__ import annotations

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
