"""Flat fast path vs trie oracle: bit-identical roots, always.

The fast path's entire value rests on one claim: for any write sequence,
``FlatStateDB`` (dict reads, journaled undo, one ``put_batch`` seal per
epoch) produces exactly the root sequence the trie-backed ``StateDB``
produces.  This file sweeps that claim at three levels: raw
``put_batch`` against sequential puts, full multi-epoch SmallBank
cluster runs across the contention/concurrency matrix, and the journal
features (rollback, historical snapshots) pinned against the oracle's
``StateSnapshot``.
"""

from __future__ import annotations

import random

import pytest

from repro.bench.harness import make_scheme
from repro.errors import StateError
from repro.net import Cluster, ClusterConfig
from repro.state.flat import FlatStateDB
from repro.state.mpt.trie import MerklePatriciaTrie, NodeStore
from repro.state.statedb import StateDB, StateSnapshot
from repro.storage.memstore import MemStore


class TestPutBatchEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_batch_root_matches_sequential_puts(self, seed):
        rng = random.Random(seed)
        keys = [f"k{rng.randrange(500):03d}".encode() for _ in range(200)]
        base = {key: f"base-{i}".encode() for i, key in enumerate(keys[:80])}
        batch = {key: f"new-{i}".encode() for i, key in enumerate(keys[80:])}

        sequential = MerklePatriciaTrie()
        for key, value in sorted(base.items()):
            sequential.put(key, value)
        for key, value in sorted(batch.items()):
            sequential.put(key, value)

        batched = MerklePatriciaTrie()
        batched.put_batch(sorted(base.items()))
        batched.put_batch(batch.items())

        assert batched.root == sequential.root
        assert list(batched.items()) == list(sequential.items())

    def test_batch_into_empty_trie(self):
        items = [(f"key-{i:03d}".encode(), b"v%d" % i) for i in range(50)]
        sequential = MerklePatriciaTrie()
        for key, value in items:
            sequential.put(key, value)
        batched = MerklePatriciaTrie()
        assert batched.put_batch(items) == sequential.root

    def test_prefix_and_overwrite_cases(self):
        items = [
            (b"a", b"1"),
            (b"ab", b"2"),
            (b"abc", b"3"),
            (b"abd", b"4"),
            (b"b", b"5"),
        ]
        sequential = MerklePatriciaTrie()
        for key, value in items:
            sequential.put(key, value)
        batched = MerklePatriciaTrie()
        batched.put_batch(items)
        batched.put_batch([(b"ab", b"2x"), (b"abc", b"3x")])
        sequential.put(b"ab", b"2x")
        sequential.put(b"abc", b"3x")
        assert batched.root == sequential.root

    def test_duplicate_keys_last_one_wins(self):
        items = [(b"dup", b"first"), (b"other", b"x"), (b"dup", b"second"), (b"dup", b"last")]
        sequential = MerklePatriciaTrie()
        for key, value in items:
            sequential.put(key, value)
        batched = MerklePatriciaTrie()
        assert batched.put_batch(items) == sequential.root
        assert batched.get(b"dup") == b"last"

    def test_content_identical_nodes_inside_one_batch(self):
        """Keys whose leaves (and whole subtrees) encode to the same bytes
        collapse into one stored node without disturbing the root."""
        # Twenty two-leaf subtrees with one shape: same remaining paths,
        # same values, so each level's nodes collide by content.
        items = [(bytes([group, tail]), b"same") for group in range(20) for tail in (1, 2)]
        sequential = MerklePatriciaTrie()
        for key, value in items:
            sequential.put(key, value)
        batched = MerklePatriciaTrie()
        assert batched.put_batch(items) == sequential.root
        assert list(batched.items()) == sorted(items)
        # Forty leaves, two distinct encodings: each was written once.
        assert len(batched.store) < len(items)
        batched.put_batch([(bytes([3, 1]), b"same"), (bytes([4, 1]), b"other")])
        sequential.put(bytes([3, 1]), b"same")
        sequential.put(bytes([4, 1]), b"other")
        assert batched.root == sequential.root

    @pytest.mark.parametrize("backing", ["dict", "memstore", "lsm"])
    def test_failed_batch_changes_nothing(self, backing, tmp_path, monkeypatch):
        from repro.state.statedb import KVNodeMapping
        from repro.storage import LSMStore

        kv = None
        if backing == "memstore":
            kv = MemStore()
        elif backing == "lsm":
            kv = LSMStore(tmp_path / "db")
        mapping = {} if kv is None else KVNodeMapping(kv)
        store = NodeStore(mapping, decoded_cache_size=64)
        trie = MerklePatriciaTrie(store=store)
        trie.put_batch((b"key-%02d" % i, b"v%d" % i) for i in range(40))
        root = trie.root
        before = dict(mapping.items())
        cached = dict(store._decoded)

        saves = 0
        real_save = NodeStore.save

        def failing_save(self, node):
            nonlocal saves
            saves += 1
            if saves == 5:
                raise RuntimeError("injected mid-seal failure")
            return real_save(self, node)

        monkeypatch.setattr(NodeStore, "save", failing_save)
        with pytest.raises(RuntimeError, match="injected"):
            trie.put_batch((b"key-%02d" % i, b"new") for i in range(0, 40, 3))
        monkeypatch.undo()

        assert trie.root == root
        assert dict(mapping.items()) == before  # byte for byte
        # Nothing the failed seal decoded-cached may point at a missing node.
        assert all(ref in before for ref in store._decoded)
        assert cached.keys() >= store._decoded.keys()
        # The store is usable again: the same seal now succeeds.
        oracle = MerklePatriciaTrie(store=NodeStore(dict(before)), root=root)
        for i in range(0, 40, 3):
            oracle.put(b"key-%02d" % i, b"new")
        assert trie.put_batch((b"key-%02d" % i, b"new") for i in range(0, 40, 3)) == oracle.root
        if kv is not None:
            kv.close()

    def test_invalid_value_rejected_before_any_write(self):
        from repro.errors import TrieError

        trie = MerklePatriciaTrie()
        trie.put(b"a", b"1")
        nodes = len(trie.store)
        with pytest.raises(TrieError):
            trie.put_batch([(b"b", b"2"), (b"c", b"")])
        assert len(trie.store) == nodes and trie.get(b"b") is None

    def test_one_store_batch_per_seal(self):
        class CountingStore(MemStore):
            def __init__(self):
                super().__init__()
                self.puts = 0
                self.batches = []

            def put(self, key, value):
                self.puts += 1
                super().put(key, value)

            def write(self, batch):
                self.batches.append(len(batch))
                super().write(batch)

        store = CountingStore()
        db = FlatStateDB(store=store)
        db.seed({f"acct-{i:03d}": 100 for i in range(200)})
        for i in range(0, 200, 7):
            db.set(f"acct-{i:03d}", i)
        db.commit()
        assert store.puts == 0
        assert len(store.batches) == 2 and all(store.batches)


def _epoch_roots(flat_state: bool, **overrides) -> list[bytes]:
    config = ClusterConfig(
        block_concurrency=overrides.pop("omega", 4),
        block_size=40,
        account_count=400,
        flat_state=flat_state,
        **overrides,
    )
    with Cluster(make_scheme("nezha"), config) as cluster:
        run = cluster.run_epochs(3)
    return [outcome.report.state_root for outcome in run.outcomes]


class TestClusterEquivalenceSweep:
    @pytest.mark.parametrize("skew", [0.0, 0.9])
    @pytest.mark.parametrize("omega", [2, 8])
    def test_roots_identical_across_contention(self, skew, omega):
        flat = _epoch_roots(True, skew=skew, omega=omega, seed=11)
        oracle = _epoch_roots(False, skew=skew, omega=omega, seed=11)
        assert flat == oracle

    @pytest.mark.parametrize("delta_cc", [False, True])
    def test_roots_identical_with_delta_cc(self, delta_cc):
        flat = _epoch_roots(True, skew=0.9, delta_cc=delta_cc, seed=3)
        oracle = _epoch_roots(False, skew=0.9, delta_cc=delta_cc, seed=3)
        assert flat == oracle


def _paired_dbs():
    store = MemStore()
    flat = FlatStateDB(store=store)
    genesis = flat.seed({f"acct-{i:03d}": 100 for i in range(50)})
    oracle = StateDB(store=store, root=genesis)
    return flat, oracle


class TestJournalFeatures:
    def test_multi_epoch_roots_and_rollback(self):
        flat, oracle = _paired_dbs()
        rng = random.Random(0)
        roots = [flat.root]
        for _ in range(6):
            writes = {
                f"acct-{rng.randrange(50):03d}": rng.randrange(1, 1000)
                for _ in range(10)
            }
            flat.apply_writes(writes)
            oracle.apply_writes(writes)
            assert flat.commit() == oracle.commit()
            roots.append(flat.root)

        flat.rollback_to(roots[2])
        assert flat.root == roots[2]
        # Replaying the same writes from the rolled-back state reproduces
        # the same root chain (determinism through the journal).
        rng = random.Random(0)
        replayed = [flat.root]
        for _ in range(6):
            writes = {
                f"acct-{rng.randrange(50):03d}": rng.randrange(1, 1000)
                for _ in range(10)
            }
            if len(replayed) > 2:
                flat.apply_writes(writes)
                flat.commit()
                replayed.append(flat.root)
            else:
                replayed.append(roots[len(replayed)])
        assert replayed[2:] == roots[2:]

    def test_rollback_outside_journal_raises(self):
        flat, _ = _paired_dbs()
        with pytest.raises(StateError):
            flat.rollback_to(b"\x00" * 32)

    def test_historical_snapshots_match_oracle(self):
        flat, oracle = _paired_dbs()
        rng = random.Random(1)
        roots = []
        for _ in range(5):
            writes = {
                f"acct-{rng.randrange(50):03d}": rng.randrange(1, 1000)
                for _ in range(8)
            }
            flat.apply_writes(writes)
            oracle.apply_writes(writes)
            flat.commit()
            oracle.commit()
            roots.append(flat.root)

        for root in roots:
            pinned = flat.snapshot(root)
            reference = StateSnapshot(oracle._nodes, root)
            assert pinned.root == root
            assert list(pinned.items()) == list(reference.items())
            for i in range(0, 50, 7):
                address = f"acct-{i:03d}"
                assert pinned.get(address) == reference.get(address)

    def test_aged_out_snapshot_falls_back_to_trie(self):
        store = MemStore()
        flat = FlatStateDB(store=store, max_journal_layers=2)
        flat.seed({"a": 1, "b": 2})
        old_root = flat.root
        for value in range(3, 9):
            flat.set("a", value)
            flat.commit()
        assert flat.journal_depth == 2
        snapshot = flat.snapshot(old_root)
        assert isinstance(snapshot, StateSnapshot)  # oracle fallback
        assert snapshot.get("a") == 1
        assert flat.fallback_reads > 0

    def test_value_at_falls_back_when_journal_evicts_after_pin(self):
        store = MemStore()
        flat = FlatStateDB(store=store, max_journal_layers=3)
        flat.seed({"a": 1})
        pinned_root = flat.root
        snapshot = flat.snapshot(pinned_root)
        for value in range(2, 10):
            flat.set("a", value)
            flat.commit()
        # The pin aged out of the journal after the snapshot was taken;
        # reads degrade to authenticated trie lookups, same answers.
        assert snapshot.get("a") == 1
        assert flat.fallback_reads > 0

    def test_hydration_from_existing_root(self):
        store = MemStore()
        first = FlatStateDB(store=store)
        root = first.seed({f"k{i}": i + 1 for i in range(20)})
        reopened = FlatStateDB(store=store, root=root)
        assert reopened.root == root
        assert list(reopened.items()) == list(first.items())
        reopened.set("k3", 999)
        first.set("k3", 999)
        assert reopened.commit() == first.commit()

    def test_peek_ignores_staged_writes_until_the_fold(self):
        # Speculation must not see a concurrent commit's staged writes:
        # when they land relative to it is thread timing.
        flat = FlatStateDB(store=MemStore())
        flat.seed({"a": 1})
        flat.set("a", 2)
        flat.set("b", 7)
        assert (flat.get("a"), flat.get("b")) == (2, 7)
        assert (flat.peek("a"), flat.peek("b")) == (1, 0)
        reads = flat.flat_reads
        flat.peek("a")
        assert flat.flat_reads == reads
        flat.commit()
        assert (flat.peek("a"), flat.peek("b")) == (2, 7)


class TestKVNodeMappingCount:
    def test_count_scans_once_then_tracks(self):
        from repro.state.statedb import KVNodeMapping

        store = MemStore()
        mapping = KVNodeMapping(store)
        mapping[b"a"] = b"1"
        mapping[b"b"] = b"2"
        assert mapping.count() == 2
        mapping[b"c"] = b"3"
        mapping[b"a"] = b"1x"  # overwrite: count unchanged
        assert len(mapping) == 3
        del mapping[b"b"]
        assert mapping.count() == 2

    def test_mutations_before_count_stay_scan_free(self):
        from repro.state.statedb import KVNodeMapping

        class CountingStore(MemStore):
            def __init__(self):
                super().__init__()
                self.gets = 0

            def get(self, key):
                self.gets += 1
                return super().get(key)

        store = CountingStore()
        mapping = KVNodeMapping(store)
        for i in range(10):
            mapping[b"%d" % i] = b"v"
        # No count() yet: writes must not probe for presence.
        assert store.gets == 0
        assert mapping.count() == 10
        mapping[b"new"] = b"v"
        assert store.gets > 0  # now maintained incrementally
        assert mapping.count() == 11


    def test_count_exact_across_batched_write(self):
        from repro.state.statedb import KVNodeMapping

        mapping = KVNodeMapping(MemStore())
        mapping[b"a"] = b"1"
        mapping[b"b"] = b"2"
        assert mapping.count() == 2
        mapping.update({b"a": b"1x", b"c": b"3", b"d": b"4"})  # one overwrite
        assert mapping.count() == 4
        assert mapping.count() == sum(1 for _ in mapping)
        # ... and through the trie's seal, which writes via update().
        trie = MerklePatriciaTrie(store=NodeStore(mapping))
        trie.put_batch((b"k%d" % i, b"v") for i in range(30))
        trie.put_batch((b"k%d" % i, b"w") for i in range(0, 30, 4))
        assert mapping.count() == sum(1 for _ in mapping)

    def test_batched_write_before_count_stays_scan_free(self):
        from repro.state.statedb import KVNodeMapping

        class NoReadStore(MemStore):
            def get(self, key):
                raise AssertionError("batched write probed for presence")

        KVNodeMapping(NoReadStore()).update({b"a": b"1", b"b": b"2"})


class TestDecodedNodeCache:
    def test_cache_follows_live_interior_set(self):
        """Sixty seals over a fixed key set: superseded interior nodes
        leave the decoded cache instead of piling up until the cap."""
        rng = random.Random(11)
        store = NodeStore(decoded_cache_size=1 << 18)
        trie = MerklePatriciaTrie(store=store)
        keys = [b"acct:%05d" % i for i in range(2_000)]
        trie.put_batch((key, b"genesis") for key in keys)
        first_root = trie.root
        for seal in range(60):
            trie.put_batch(
                (key, b"seal-%d-%d" % (seal, rng.randrange(50)))
                for key in rng.sample(keys, 150)
            )
        from repro.state.mpt import LeafNode
        from repro.state.pruning import collect_reachable

        cached = len(store._decoded)  # before the scan below re-warms it
        live_interior = sum(
            1
            for ref in collect_reachable(store, [trie.root])
            if not isinstance(store.load(ref), LeafNode)
        )
        assert cached <= 2 * live_interior
        # The store itself keeps every old version: old roots stay readable.
        assert MerklePatriciaTrie(store=store, root=first_root).get(keys[0]) == b"genesis"

    def test_resaved_identical_node_stays_cached(self):
        store = NodeStore(decoded_cache_size=64)
        trie = MerklePatriciaTrie(store=store)
        trie.put_batch((b"key-%d" % i, b"v") for i in range(20))
        trie.put_batch([(b"key-3", b"v")])  # same content: same refs
        assert trie.root in store._decoded

    def test_cache_returns_identical_content(self):
        store = NodeStore(decoded_cache_size=64)
        trie = MerklePatriciaTrie(store=store)
        for i in range(40):
            trie.put(b"key-%d" % i, b"value-%d" % i)
        uncached = NodeStore(trie.store._nodes, decoded_cache_size=0)
        reference = MerklePatriciaTrie(store=uncached, root=trie.root)
        assert list(trie.items()) == list(reference.items())

    def test_drop_caches_after_external_delete(self):
        from repro.errors import TrieError
        from repro.state.pruning import prune

        store = NodeStore(decoded_cache_size=64)
        trie = MerklePatriciaTrie(store=store)
        trie.put(b"a", b"1")
        doomed_root = trie.root
        trie.put(b"a", b"2")
        prune(store, [trie.root])
        stale = MerklePatriciaTrie(store=store, root=doomed_root)
        with pytest.raises(TrieError):
            stale.get(b"a")
