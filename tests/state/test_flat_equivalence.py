"""The per-epoch seal: ``put_batch`` against sequential puts, and the
flat dict, node mapping and decoded cache around it.

Every state root comes from one ``put_batch`` per epoch; its claim to be
the sequential-put root of the same content is swept here at the trie
level and, across random multi-epoch histories, by the state-level
property in ``tests/properties/test_substrate_properties.py``.
"""

from __future__ import annotations

import random

import pytest

from repro.state.mpt import EMPTY_REF, ExtensionNode, LeafNode
from repro.state.mpt.trie import MerklePatriciaTrie, NodeStore
from repro.state.statedb import StateDB
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
        db = StateDB(store=store)
        db.seed({f"acct-{i:03d}": 100 for i in range(200)})
        for i in range(0, 200, 7):
            db.set(f"acct-{i:03d}", i)
        db.commit()
        assert store.puts == 0
        assert len(store.batches) == 2 and all(store.batches)


class TestFlatDict:
    def test_hydration_from_existing_root(self):
        store = MemStore()
        first = StateDB(store=store)
        root = first.seed({f"k{i}": i + 1 for i in range(20)})
        reopened = StateDB(store=store, root=root)
        assert reopened.root == root
        assert list(reopened.items()) == list(first.items())
        reopened.set("k3", 999)
        first.set("k3", 999)
        assert reopened.commit() == first.commit()

    def test_peek_ignores_staged_writes_until_the_fold(self):
        # Speculation must not see a concurrent commit's staged writes:
        # when they land relative to it is thread timing.
        state = StateDB(store=MemStore())
        state.seed({"a": 1})
        state.set("a", 2)
        state.set("b", 7)
        assert (state.get("a"), state.get("b")) == (2, 7)
        assert (state.peek("a"), state.peek("b")) == (1, 0)
        state.commit()
        assert (state.peek("a"), state.peek("b")) == (2, 7)


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
        cached = len(store._decoded)  # before the walk below re-warms it
        live_interior: set[bytes] = set()
        stack = [trie.root]
        while stack:
            ref = stack.pop()
            node = store.load(ref)
            if ref in live_interior or isinstance(node, LeafNode):
                continue
            live_interior.add(ref)
            if isinstance(node, ExtensionNode):
                stack.append(node.child)
            else:
                stack.extend(child for child in node.children if child != EMPTY_REF)
        assert cached <= 2 * len(live_interior)
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
