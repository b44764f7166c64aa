"""Structural trie tests: deep nesting, golden roots, node accounting."""

from __future__ import annotations

import pytest

from repro.errors import TrieError
from repro.state.mpt import (
    BranchNode,
    ExtensionNode,
    LeafNode,
    MerklePatriciaTrie,
    decode_node,
    rlp_encode,
)


class TestDeepStructures:
    def test_long_shared_prefix_chain(self):
        trie = MerklePatriciaTrie()
        base = b"\x11" * 30
        trie.put(base + b"\x01", b"one")
        trie.put(base + b"\x02", b"two")
        assert trie.get(base + b"\x01") == b"one"
        assert trie.get(base + b"\x02") == b"two"

    def test_every_prefix_is_its_own_key(self):
        trie = MerklePatriciaTrie()
        key = b"abcdefgh"
        for length in range(1, len(key) + 1):
            trie.put(key[:length], str(length).encode())
        for length in range(1, len(key) + 1):
            assert trie.get(key[:length]) == str(length).encode()

    def test_single_byte_key_fanout(self):
        trie = MerklePatriciaTrie()
        for byte in range(256):
            trie.put(bytes([byte]), bytes([byte, byte]))
        assert len(list(trie.items())) == 256
        assert trie.get(b"\x7f") == b"\x7f\x7f"

    def test_deleting_prefix_keys_preserves_rest(self):
        trie = MerklePatriciaTrie()
        key = b"abcdefgh"
        for length in range(1, len(key) + 1):
            trie.put(key[:length], str(length).encode())
        for length in range(1, len(key), 2):
            trie.delete(key[:length])
        for length in range(2, len(key) + 1, 2):
            assert trie.get(key[:length]) == str(length).encode()


class TestGoldenRoot:
    """Pin the root of a fixed map so encoding changes are caught."""

    GOLDEN_ENTRIES = {f"acct:{i:04d}".encode(): f"balance-{i}".encode() for i in range(64)}

    def test_golden_root_stable(self):
        trie = MerklePatriciaTrie()
        for key, value in self.GOLDEN_ENTRIES.items():
            trie.put(key, value)
        # Computed once and pinned: any change to RLP, hex-prefix, node
        # layout, or hashing breaks this (deliberately).
        assert trie.root.hex() == (
            "54490d919586ff2210445d49d63ed3f6d6ebd0d7d4639d717c6e6c09bd511899"
        )

    def test_store_grows_copy_on_write(self):
        trie = MerklePatriciaTrie()
        trie.put(b"key", b"v1")
        nodes_before = len(trie.store)
        trie.put(b"key", b"v2")
        assert len(trie.store) > nodes_before  # old version retained


class TestNodeValidation:
    def test_branch_requires_16_children(self):
        with pytest.raises(TrieError):
            BranchNode(children=(b"",) * 15)

    def test_extension_requires_path_and_child(self):
        with pytest.raises(TrieError):
            ExtensionNode(path=b"", child=b"x" * 32)
        with pytest.raises(TrieError):
            ExtensionNode(path=b"\x01", child=b"")

    def test_decode_rejects_wrong_arity(self):
        with pytest.raises(TrieError):
            decode_node(rlp_encode([b"a", b"b", b"c"]))

    def test_decode_rejects_non_list(self):
        with pytest.raises(TrieError):
            decode_node(rlp_encode(b"not-a-node"))

    def test_leaf_roundtrip(self):
        leaf = LeafNode(path=bytes([1, 2, 3]), value=b"payload")
        assert decode_node(leaf.encode()) == leaf

    def test_branch_roundtrip_with_value(self):
        branch = BranchNode().with_child(3, b"\xaa" * 32).with_value(b"val")
        assert decode_node(branch.encode()) == branch

    def test_branch_only_child_helpers(self):
        branch = BranchNode().with_child(7, b"\xbb" * 32)
        assert branch.child_count() == 1
        assert branch.only_child() == (7, b"\xbb" * 32)
        with pytest.raises(TrieError):
            BranchNode().only_child()
