"""Property-based tests for the substrates: trie, storage, codec, VM."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.state import StateDB, decode_int, encode_int
from repro.state.mpt import (
    BranchNode,
    ExtensionNode,
    LeafNode,
    MerklePatriciaTrie,
    bytes_to_nibbles,
    common_prefix_length,
    decode_node,
    hp_decode,
    hp_encode,
    nibbles_to_bytes,
    rlp_decode,
    rlp_encode,
    verify_proof,
)
from repro.storage import MemStore
from repro.workload import ZipfSampler

keys = st.binary(min_size=1, max_size=12)
values = st.binary(min_size=1, max_size=24)


rlp_items = st.recursive(
    st.binary(max_size=40),
    lambda children: st.lists(children, max_size=5),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(rlp_items)
def test_rlp_roundtrip(item):
    assert rlp_decode(rlp_encode(item)) == item


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=16))
def test_nibble_roundtrip(data):
    assert nibbles_to_bytes(bytes_to_nibbles(data)) == data


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=15), max_size=20),
    st.booleans(),
)
def test_hex_prefix_roundtrip(nibbles, is_leaf):
    path, leaf = hp_decode(hp_encode(bytes(nibbles), is_leaf))
    assert path == bytes(nibbles)
    assert leaf == is_leaf


nibble_paths = st.lists(st.integers(min_value=0, max_value=15), max_size=20).map(bytes)
# RLP's header boundaries: a single byte either side of 0x80 and the
# 55/56-byte switch from short to long strings (a branch reads an empty
# value as "no value", so only the leaf test adds it).
node_values = st.one_of(
    st.sampled_from([b"\x00", b"\x7f", b"\x80", b"x" * 55, b"x" * 56, b"x" * 300]),
    st.binary(min_size=1, max_size=80),
)
child_refs = st.one_of(st.just(b""), st.binary(min_size=32, max_size=32), st.binary(max_size=40))


@settings(max_examples=200, deadline=None)
@given(nibble_paths, nibble_paths)
def test_common_prefix_length_matches_scan(left, right):
    expected = 0
    for a, b in zip(left, right):
        if a != b:
            break
        expected += 1
    assert common_prefix_length(left, right) == expected
    assert common_prefix_length(left, left) == len(left)


@settings(max_examples=200, deadline=None)
@given(nibble_paths, st.just(b"") | node_values)
def test_leaf_encoding_is_generic_rlp(path, value):
    leaf = LeafNode(path=path, value=value)
    assert leaf.encode() == rlp_encode([hp_encode(path, True), value])
    assert decode_node(leaf.encode()) == leaf


@settings(max_examples=200, deadline=None)
@given(nibble_paths.filter(len), child_refs.filter(len))
def test_extension_encoding_is_generic_rlp(path, child):
    node = ExtensionNode(path=path, child=child)
    assert node.encode() == rlp_encode([hp_encode(path, False), child])
    assert decode_node(node.encode()) == node


@settings(max_examples=200, deadline=None)
@given(st.lists(child_refs, min_size=16, max_size=16), st.none() | node_values)
def test_branch_encoding_is_generic_rlp(children, value):
    branch = BranchNode(children=tuple(children), value=value)
    assert branch.encode() == rlp_encode([*children, value if value is not None else b""])
    assert decode_node(branch.encode()) == branch


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2**80))
def test_int_codec_roundtrip(value):
    assert decode_int(encode_int(value)) == value


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(keys, values, max_size=30))
def test_trie_matches_dict(entries):
    trie = MerklePatriciaTrie()
    for key, value in entries.items():
        trie.put(key, value)
    assert dict(trie.items()) == dict(sorted(entries.items()))
    for key, value in entries.items():
        assert trie.get(key) == value


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(keys, values, max_size=25))
def test_trie_root_order_insensitive(entries):
    ordered = MerklePatriciaTrie()
    for key in sorted(entries):
        ordered.put(key, entries[key])
    reverse = MerklePatriciaTrie()
    for key in sorted(entries, reverse=True):
        reverse.put(key, entries[key])
    assert ordered.root == reverse.root


@settings(max_examples=40, deadline=None)
@given(
    st.dictionaries(keys, values, min_size=1, max_size=20),
    st.data(),
)
def test_trie_delete_equals_fresh_build(entries, data):
    doomed = data.draw(
        st.lists(st.sampled_from(sorted(entries)), unique=True, max_size=len(entries))
    )
    trie = MerklePatriciaTrie()
    for key, value in entries.items():
        trie.put(key, value)
    for key in doomed:
        trie.delete(key)
    survivors = {k: v for k, v in entries.items() if k not in doomed}
    fresh = MerklePatriciaTrie()
    for key, value in survivors.items():
        fresh.put(key, value)
    assert trie.root == fresh.root
    assert dict(trie.items()) == dict(sorted(survivors.items()))


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(keys, values, min_size=1, max_size=20), st.data())
def test_trie_proofs_verify(entries, data):
    trie = MerklePatriciaTrie()
    for key, value in entries.items():
        trie.put(key, value)
    probe = data.draw(st.one_of(st.sampled_from(sorted(entries)), keys))
    proof = trie.prove(probe)
    proven = verify_proof(trie.root, probe, proof)
    assert proven == entries.get(probe)


# Model-based storage test: sequences of put/delete against a dict model.
ops = st.lists(
    st.tuples(
        st.sampled_from(["put", "delete", "get"]),
        st.binary(min_size=1, max_size=6),
        st.binary(min_size=1, max_size=8),
    ),
    max_size=80,
)


@settings(max_examples=60, deadline=None)
@given(ops)
def test_memstore_matches_model(operations):
    store = MemStore()
    model: dict[bytes, bytes] = {}
    for action, key, value in operations:
        if action == "put":
            store.put(key, value)
            model[key] = value
        elif action == "delete":
            store.delete(key)
            model.pop(key, None)
        else:
            assert store.get(key) == model.get(key)
    assert dict(store.scan()) == dict(sorted(model.items()))


@settings(max_examples=25, deadline=None)
@given(operations=ops)
def test_lsm_matches_model(tmp_path_factory, operations):
    from repro.storage import LSMStore

    directory = tmp_path_factory.mktemp("lsm")
    store = LSMStore(directory, flush_bytes=128, compaction_threshold=3)
    model: dict[bytes, bytes] = {}
    for action, key, value in operations:
        if action == "put":
            store.put(key, value)
            model[key] = value
        elif action == "delete":
            store.delete(key)
            model.pop(key, None)
        else:
            assert store.get(key) == model.get(key)
    assert dict(store.scan()) == dict(sorted(model.items()))
    store.close()


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(st.text(min_size=1, max_size=8), st.integers(min_value=0, max_value=10**9), max_size=20))
def test_statedb_snapshot_isolation(entries):
    db = StateDB(store=MemStore())
    root = db.seed(dict(entries))
    snap = db.snapshot(root)
    for address in entries:
        db.set(address, entries[address] + 1)
    db.commit()
    for address, value in entries.items():
        assert snap.get(address) == value
        assert db.get(address) == value + 1


# Few addresses, small values: overwrites, same-value rewrites and zeros
# are common; an empty dictionary is an empty epoch.
epoch_writes = st.dictionaries(
    st.sampled_from([f"acct:{i}" for i in range(6)]) | st.text(min_size=1, max_size=6),
    st.integers(min_value=0, max_value=3) | st.integers(min_value=0, max_value=2**40),
    max_size=8,
)


@settings(max_examples=40, deadline=None)
@given(st.lists(epoch_writes, min_size=1, max_size=6), st.randoms(use_true_random=False))
def test_statedb_roots_and_history_match_the_trie(epochs, rng):
    """The trie is the oracle: each sealed root is the sequential-put root
    of the cumulative map, and every earlier root still reads back its own
    epoch through a snapshot and through a state reopened at it."""
    store = MemStore()
    db = StateDB(store=store)
    history: list[tuple[bytes, dict[str, int]]] = [(db.root, {})]
    for writes in epochs:
        previous = history[-1][1]
        before = db.snapshot()
        db.apply_writes(writes)
        root = db.commit()
        current = {**previous, **writes}
        oracle = MerklePatriciaTrie()
        for address in rng.sample(sorted(current), len(current)):
            oracle.put(address.encode(), encode_int(current[address]))
        assert root == oracle.root
        assert {a: before.get(a) for a in writes} == {a: previous.get(a, 0) for a in writes}
        history.append((root, current))
    for root, expected in history:
        snapshot = db.snapshot(root)
        assert dict(snapshot.items()) == expected
        assert all(snapshot.get(address) == value for address, value in expected.items())
        in_key_order = sorted(expected.items(), key=lambda item: item[0].encode())
        assert list(StateDB(store, root=root).items()) == in_key_order


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=500),
    st.floats(min_value=0.0, max_value=1.5, allow_nan=False),
    st.integers(min_value=0, max_value=2**16),
)
def test_zipf_sampler_in_range_and_seeded(population, skew, seed):
    sampler = ZipfSampler(population=population, skew=skew, seed=seed)
    draws = sampler.sample_many(50)
    assert all(0 <= d < population for d in draws)
    again = ZipfSampler(population=population, skew=skew, seed=seed).sample_many(50)
    assert draws == again
