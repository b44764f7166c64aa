"""The Merkle Patricia Trie.

Persistent (copy-on-write) trie over a node store: every mutation writes
new nodes and returns a new root hash, so any historical root remains
readable — this is what lets each DAG epoch expose the previous epoch's
state root for block validation, and lets snapshots be free.

Values must be non-empty byte strings (an empty value would be ambiguous
with branch-node "no value" slots, as in Ethereum).
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from typing import Iterable, Iterator, MutableMapping

from repro.errors import TrieError
from repro.state.mpt.nibbles import (
    Nibbles,
    bytes_to_nibbles,
    common_prefix_length,
    nibbles_to_bytes,
)
from repro.state.mpt.nodes import (
    EMPTY_REF,
    BranchNode,
    ExtensionNode,
    LeafNode,
    Node,
    decode_node,
    hash_node,
)

EMPTY_ROOT = hashlib.sha256(b"").digest()
"""Root hash of the empty trie."""

_NIBBLE = [bytes((value,)) for value in range(16)]
"""One-nibble paths, for extending a path by a branch slot."""


DEFAULT_DECODED_CACHE = 1 << 18
"""Decoded interior nodes retained in memory (nodes are immutable, so
sharing is safe).  Sized to keep the whole upper trie resident at about
a million accounts; occupancy — and therefore memory — scales with the
live interior set, not the cap."""


class NodeStore:
    """Content-addressed node storage (hash -> encoded node).

    ``decoded_cache_size > 0`` keeps a bounded cache of *decoded* interior
    nodes: every save and load-miss parks the node object, so walking a
    path that a previous seal rebuilt skips the RLP decode entirely.  Off
    by default for a bare trie; :class:`repro.state.statedb.StateDB`
    always turns it on.  Content addressing makes the cache trivially
    coherent: a ref's node can never change, and nodes are never deleted.

    Inside :meth:`batch` saves are buffered and reach the backing mapping
    as one ``update`` when the block exits, or not at all when it raises.
    """

    def __init__(
        self,
        backing: MutableMapping[bytes, bytes] | None = None,
        decoded_cache_size: int = 0,
    ) -> None:
        self._nodes: MutableMapping[bytes, bytes] = backing if backing is not None else {}
        self._decoded: dict[bytes, Node] = {}
        self._decoded_cap = decoded_cache_size
        self._pending: dict[bytes, bytes] | None = None
        self._replaced: list[bytes] = []

    def load(self, ref: bytes) -> Node:
        """Fetch and decode a node by reference."""
        node = self._decoded.get(ref)
        if node is not None:
            return node
        node = decode_node(self.raw(ref))
        self._cache_decoded(ref, node)
        return node

    def load_replaced(self, ref: bytes) -> Node:
        """:meth:`load` a node the open batch is about to supersede.

        The ref leaves the decoded cache when the batch lands (unless the
        batch saved the same content again), so the cache follows the
        live interior set instead of accumulating every old version.  The
        backing mapping keeps the node: old roots stay readable.
        """
        self._replaced.append(ref)
        return self.load(ref)

    def save(self, node: Node) -> bytes:
        """Encode, hash, and persist a node; returns its reference."""
        encoded = node.encode()
        ref = hash_node(encoded)
        if self._pending is not None:
            self._pending[ref] = encoded
        else:
            self._nodes[ref] = encoded
        self._cache_decoded(ref, node)
        return ref

    @contextmanager
    def batch(self) -> Iterator[None]:
        """Buffer every :meth:`save` in the block into one backing write.

        Content-identical nodes collapse into one entry.  If the block
        raises, the buffer is discarded — the backing mapping is exactly
        as it was — along with the decoded-cache entries it fed.
        """
        if self._pending is not None:
            raise TrieError("node store batch already open")
        pending: dict[bytes, bytes] = {}
        self._pending = pending
        try:
            yield
            self._nodes.update(pending)
        except BaseException:
            for ref in pending:
                self._decoded.pop(ref, None)
            raise
        else:
            for ref in self._replaced:
                if ref not in pending:
                    self._decoded.pop(ref, None)
        finally:
            self._pending = None
            self._replaced.clear()

    def _cache_decoded(self, ref: bytes, node: Node) -> None:
        if self._decoded_cap <= 0:
            return
        if isinstance(node, LeafNode):
            # Leaves are the long tail: one per key, touched once per
            # write.  Caching only interior nodes keeps the whole upper
            # trie resident even at millions of accounts.
            return
        if len(self._decoded) >= self._decoded_cap:
            # Wholesale eviction: cheaper than LRU bookkeeping on every
            # hit, and the next commits re-warm the hot upper levels.
            self._decoded.clear()
        self._decoded[ref] = node

    def raw(self, ref: bytes) -> bytes:
        """The encoded bytes of a node (used to build proofs)."""
        pending = self._pending
        if pending is not None:
            encoded = pending.get(ref)
            if encoded is not None:
                return encoded
        try:
            return self._nodes[ref]
        except KeyError:
            raise TrieError(f"missing trie node {ref.hex()[:16]}...") from None

    def __len__(self) -> int:
        return len(self._nodes)


class MerklePatriciaTrie:
    """Authenticated key-value map with deterministic root hashes."""

    def __init__(self, store: NodeStore | None = None, root: bytes = EMPTY_ROOT) -> None:
        self.store = store if store is not None else NodeStore()
        self.root = root

    # ------------------------------------------------------------- queries

    def get(self, key: bytes) -> bytes | None:
        """Value stored under ``key``, or ``None``."""
        if self.root == EMPTY_ROOT:
            return None
        return self._get(self.root, bytes_to_nibbles(key))

    def _get(self, ref: bytes, path: Nibbles) -> bytes | None:
        node = self.store.load(ref)
        if isinstance(node, LeafNode):
            return node.value if node.path == path else None
        if isinstance(node, ExtensionNode):
            length = len(node.path)
            if path[:length] != node.path:
                return None
            return self._get(node.child, path[length:])
        if not path:
            return node.value
        child = node.children[path[0]]
        if child == EMPTY_REF:
            return None
        return self._get(child, path[1:])

    def items(self) -> Iterator[tuple[bytes, bytes]]:
        """All ``(key, value)`` pairs in ascending key order."""
        if self.root == EMPTY_ROOT:
            return
        yield from self._items(self.root, b"")

    def items_with_prefix(self, prefix: bytes) -> Iterator[tuple[bytes, bytes]]:
        """Entries whose key starts with ``prefix``, in key order.

        Descends directly to the prefix's subtree, so enumerating a small
        namespace (e.g. all ``sav:`` accounts) does not touch the rest of
        the trie.
        """
        if self.root == EMPTY_ROOT:
            return
        target = bytes_to_nibbles(prefix)
        ref = self.root
        consumed = b""
        while True:
            node = self.store.load(ref)
            if isinstance(node, LeafNode):
                full = consumed + node.path
                if full[: len(target)] == target:
                    yield nibbles_to_bytes(full), node.value
                return
            if isinstance(node, ExtensionNode):
                length = len(node.path)
                remaining = target[len(consumed) :]
                overlap = min(length, len(remaining))
                if node.path[:overlap] != remaining[:overlap]:
                    return
                consumed = consumed + node.path
                ref = node.child
                if len(consumed) >= len(target):
                    yield from self._items_filtered(ref, consumed, target)
                    return
                continue
            # Branch node.
            if len(consumed) >= len(target):
                yield from self._items_filtered(ref, consumed, target)
                return
            slot = target[len(consumed)]
            child = node.children[slot]
            if child == EMPTY_REF:
                return
            consumed = consumed + _NIBBLE[slot]
            ref = child
            if len(consumed) >= len(target):
                yield from self._items_filtered(ref, consumed, target)
                return

    def _items_filtered(
        self, ref: bytes, prefix: Nibbles, target: Nibbles
    ) -> Iterator[tuple[bytes, bytes]]:
        """Enumerate a subtree, re-checking the target prefix on each key."""
        for key, value in self._items(ref, prefix):
            if bytes_to_nibbles(key)[: len(target)] == target:
                yield key, value

    def _items(self, ref: bytes, prefix: Nibbles) -> Iterator[tuple[bytes, bytes]]:
        node = self.store.load(ref)
        if isinstance(node, LeafNode):
            yield nibbles_to_bytes(prefix + node.path), node.value
            return
        if isinstance(node, ExtensionNode):
            yield from self._items(node.child, prefix + node.path)
            return
        if node.value is not None:
            yield nibbles_to_bytes(prefix), node.value
        for index, child in enumerate(node.children):
            if child != EMPTY_REF:
                yield from self._items(child, prefix + _NIBBLE[index])

    # ----------------------------------------------------------- mutations

    def put(self, key: bytes, value: bytes) -> bytes:
        """Insert or overwrite; returns the new root hash."""
        if not isinstance(value, (bytes, bytearray)) or len(value) == 0:
            raise TrieError("trie values must be non-empty bytes")
        path = bytes_to_nibbles(key)
        if self.root == EMPTY_ROOT:
            self.root = self.store.save(LeafNode(path=path, value=bytes(value)))
        else:
            self.root = self._put(self.root, path, bytes(value))
        return self.root

    def _put(self, ref: bytes, path: Nibbles, value: bytes) -> bytes:
        node = self.store.load(ref)
        if isinstance(node, LeafNode):
            return self._put_into_leaf(node, path, value)
        if isinstance(node, ExtensionNode):
            return self._put_into_extension(node, path, value)
        return self._put_into_branch(node, path, value)

    def _put_into_leaf(self, node: LeafNode, path: Nibbles, value: bytes) -> bytes:
        if node.path == path:
            return self.store.save(LeafNode(path=path, value=value))
        shared = common_prefix_length(node.path, path)
        branch = BranchNode()
        old_rest = node.path[shared:]
        new_rest = path[shared:]
        if old_rest:
            old_ref = self.store.save(LeafNode(path=old_rest[1:], value=node.value))
            branch = branch.with_child(old_rest[0], old_ref)
        else:
            branch = branch.with_value(node.value)
        if new_rest:
            new_ref = self.store.save(LeafNode(path=new_rest[1:], value=value))
            branch = branch.with_child(new_rest[0], new_ref)
        else:
            branch = branch.with_value(value)
        branch_ref = self.store.save(branch)
        if shared:
            return self.store.save(ExtensionNode(path=path[:shared], child=branch_ref))
        return branch_ref

    def _put_into_extension(self, node: ExtensionNode, path: Nibbles, value: bytes) -> bytes:
        shared = common_prefix_length(node.path, path)
        if shared == len(node.path):
            child_ref = self._put(node.child, path[shared:], value)
            return self.store.save(ExtensionNode(path=node.path, child=child_ref))
        # Split the extension at the divergence point.
        branch = BranchNode()
        ext_rest = node.path[shared:]
        if len(ext_rest) == 1:
            branch = branch.with_child(ext_rest[0], node.child)
        else:
            inner = self.store.save(ExtensionNode(path=ext_rest[1:], child=node.child))
            branch = branch.with_child(ext_rest[0], inner)
        new_rest = path[shared:]
        if new_rest:
            leaf = self.store.save(LeafNode(path=new_rest[1:], value=value))
            branch = branch.with_child(new_rest[0], leaf)
        else:
            branch = branch.with_value(value)
        branch_ref = self.store.save(branch)
        if shared:
            return self.store.save(ExtensionNode(path=path[:shared], child=branch_ref))
        return branch_ref

    def _put_into_branch(self, node: BranchNode, path: Nibbles, value: bytes) -> bytes:
        if not path:
            return self.store.save(node.with_value(value))
        slot = path[0]
        child = node.children[slot]
        if child == EMPTY_REF:
            leaf = self.store.save(LeafNode(path=path[1:], value=value))
            return self.store.save(node.with_child(slot, leaf))
        new_child = self._put(child, path[1:], value)
        return self.store.save(node.with_child(slot, new_child))

    def put_batch(self, items: "Iterable[tuple[bytes, bytes]]") -> bytes:
        """Insert or overwrite many keys in one subtree rebuild.

        Equivalent to calling :meth:`put` per item (later duplicates win)
        but each touched subtree is rebuilt exactly once, bottom-up:
        the dirty keys are sorted and grouped by shared nibble prefix, so
        a path node shared by N keys is re-encoded and re-hashed once
        instead of N times, and untouched children keep their existing
        refs — their hashes are never recomputed.  The trie's canonical
        form (maximal path compression) makes the resulting root
        bit-identical to the sequential-put root for the same content.

        All new nodes reach the store as one batch (see
        :meth:`NodeStore.batch`); if anything raises on the way, neither
        the store nor :attr:`root` changes.
        """
        staged: dict[Nibbles, bytes] = {}
        for key, value in items:
            if not isinstance(value, (bytes, bytearray)) or len(value) == 0:
                raise TrieError("trie values must be non-empty bytes")
            staged[bytes_to_nibbles(key)] = bytes(value)
        if not staged:
            return self.root
        pairs = sorted(staged.items())
        store = self.store
        with store.batch():
            if self.root == EMPTY_ROOT:
                node = self._build_subtree(pairs)
            else:
                node = self._put_batch(store.load_replaced(self.root), pairs)
            root = store.save(node)
        self.root = root
        return root

    def _put_batch(self, node: Node, pairs: list[tuple[Nibbles, bytes]]) -> Node:
        """Merge sorted ``(path, value)`` pairs into ``node``'s subtree.

        Returns the replacement node *unsaved*; the caller saves it (the
        recursion saves children, so every new node is hashed once).
        """
        if isinstance(node, BranchNode):
            return self._put_batch_branch(node, pairs)
        if isinstance(node, ExtensionNode):
            return self._put_batch_extension(node, pairs)
        if len(pairs) == 1 and pairs[0][0] == node.path:
            return LeafNode(node.path, pairs[0][1])
        merged = dict(pairs)
        merged.setdefault(node.path, node.value)
        return self._build_subtree(sorted(merged.items()))

    def _put_batch_branch(
        self, node: BranchNode, pairs: list[tuple[Nibbles, bytes]]
    ) -> BranchNode:
        value, groups = _group_by_first_nibble(pairs, node.value)
        children = list(node.children)
        store = self.store
        for slot, group in groups.items():
            if children[slot] == EMPTY_REF:
                sub = self._build_subtree(group)
            else:
                sub = self._put_batch(store.load_replaced(children[slot]), group)
            children[slot] = store.save(sub)
        return BranchNode(tuple(children), value)

    def _put_batch_extension(
        self, node: ExtensionNode, pairs: list[tuple[Nibbles, bytes]]
    ) -> Node:
        store = self.store
        # Sorted input: every path lies between the first and the last, so
        # one of those two diverges from the extension earliest.
        first, last = pairs[0][0], pairs[-1][0]
        if first.startswith(node.path) and last.startswith(node.path):
            shared = len(node.path)
        else:
            shared = min(
                common_prefix_length(node.path, first),
                common_prefix_length(node.path, last),
            )
        if shared == len(node.path):
            trimmed = [(path[shared:], value) for path, value in pairs]
            child = self._put_batch(store.load_replaced(node.child), trimmed)
            return ExtensionNode(node.path, store.save(child))
        # Split the extension at the earliest divergence point.
        value, groups = _group_by_first_nibble(
            [(path[shared:], item) for path, item in pairs] if shared else pairs, None
        )
        children: list[bytes] = [EMPTY_REF] * 16
        ext_rest = node.path[shared:]
        if ext_rest[0] in groups:
            # Some pairs continue into the extension's own subtree.
            if len(ext_rest) == 1:
                inner: Node = store.load_replaced(node.child)
            else:
                inner = ExtensionNode(ext_rest[1:], node.child)
            merged = self._put_batch(inner, groups.pop(ext_rest[0]))
            children[ext_rest[0]] = store.save(merged)
        elif len(ext_rest) == 1:
            children[ext_rest[0]] = node.child  # untouched ref, reused as-is
        else:
            children[ext_rest[0]] = store.save(ExtensionNode(ext_rest[1:], node.child))
        for slot, group in groups.items():
            children[slot] = store.save(self._build_subtree(group))
        branch = BranchNode(tuple(children), value)
        if shared:
            return ExtensionNode(node.path[:shared], store.save(branch))
        return branch

    def _build_subtree(self, pairs: list[tuple[Nibbles, bytes]]) -> Node:
        """Canonical subtree for sorted, distinct ``(path, value)`` pairs."""
        if len(pairs) == 1:
            path, value = pairs[0]
            return LeafNode(path, value)
        # Sorted input: the common prefix of first and last covers all.
        shared = common_prefix_length(pairs[0][0], pairs[-1][0])
        if shared:
            trimmed = [(path[shared:], value) for path, value in pairs]
            branch = self._build_branch(trimmed)
            return ExtensionNode(pairs[0][0][:shared], self.store.save(branch))
        return self._build_branch(pairs)

    def _build_branch(self, pairs: list[tuple[Nibbles, bytes]]) -> BranchNode:
        """Branch over pairs that share no leading nibble (>= 2 pairs)."""
        value, groups = _group_by_first_nibble(pairs, None)
        children: list[bytes] = [EMPTY_REF] * 16
        for slot, group in groups.items():
            children[slot] = self.store.save(self._build_subtree(group))
        return BranchNode(tuple(children), value)

    def delete(self, key: bytes) -> bytes:
        """Remove ``key`` if present; returns the new root hash."""
        if self.root == EMPTY_ROOT:
            return self.root
        result = self._delete(self.root, bytes_to_nibbles(key))
        if result is _UNCHANGED:
            return self.root
        if result is None:
            self.root = EMPTY_ROOT
        else:
            self.root = self.store.save(result)
        return self.root

    def _delete(self, ref: bytes, path: Nibbles) -> "Node | None | object":
        """Delete within the subtree at ``ref``.

        Returns the replacement *node* (not ref), ``None`` when the subtree
        vanishes, or ``_UNCHANGED`` when the key was absent.
        """
        node = self.store.load(ref)
        if isinstance(node, LeafNode):
            return None if node.path == path else _UNCHANGED
        if isinstance(node, ExtensionNode):
            length = len(node.path)
            if path[:length] != node.path:
                return _UNCHANGED
            result = self._delete(node.child, path[length:])
            if result is _UNCHANGED:
                return _UNCHANGED
            if result is None:
                return None
            return self._merge_extension(node.path, result)
        # Branch node.
        if not path:
            if node.value is None:
                return _UNCHANGED
            return self._collapse_branch(node.with_value(None))
        slot = path[0]
        child = node.children[slot]
        if child == EMPTY_REF:
            return _UNCHANGED
        result = self._delete(child, path[1:])
        if result is _UNCHANGED:
            return _UNCHANGED
        if result is None:
            return self._collapse_branch(node.with_child(slot, EMPTY_REF))
        return node.with_child(slot, self.store.save(result))

    def _merge_extension(self, prefix: Nibbles, child: Node) -> Node:
        """Fold an extension over its replacement child."""
        if isinstance(child, LeafNode):
            return LeafNode(path=prefix + child.path, value=child.value)
        if isinstance(child, ExtensionNode):
            return ExtensionNode(path=prefix + child.path, child=child.child)
        return ExtensionNode(path=prefix, child=self.store.save(child))

    def _collapse_branch(self, node: BranchNode) -> Node | None:
        """Re-normalise a branch after a slot or value was cleared."""
        count = node.child_count()
        if count == 0:
            if node.value is None:
                return None
            return LeafNode(path=b"", value=node.value)
        if count == 1 and node.value is None:
            slot, ref = node.only_child()
            child = self.store.load(ref)
            return self._merge_extension(_NIBBLE[slot], child)
        return node

    # -------------------------------------------------------------- proofs

    def prove(self, key: bytes) -> list[bytes]:
        """Merkle proof: the encoded nodes on the path to ``key``.

        Valid both as a proof of inclusion (key present) and exclusion
        (path shows where the key would diverge).
        """
        proof: list[bytes] = []
        if self.root == EMPTY_ROOT:
            return proof
        ref = self.root
        path = bytes_to_nibbles(key)
        while True:
            encoded = self.store.raw(ref)
            proof.append(encoded)
            node = decode_node(encoded)
            if isinstance(node, LeafNode):
                return proof
            if isinstance(node, ExtensionNode):
                length = len(node.path)
                if path[:length] != node.path:
                    return proof
                path = path[length:]
                ref = node.child
                continue
            if not path:
                return proof
            child = node.children[path[0]]
            if child == EMPTY_REF:
                return proof
            path = path[1:]
            ref = child

    def __contains__(self, key: bytes) -> bool:
        return self.get(key) is not None


def _group_by_first_nibble(
    pairs: list[tuple[Nibbles, bytes]], value: bytes | None
) -> tuple[bytes | None, dict[int, list[tuple[Nibbles, bytes]]]]:
    """Split pairs by leading nibble, each keeping the rest of its path.

    An empty path addresses the branch itself: its item replaces ``value``.
    """
    groups: dict[int, list[tuple[Nibbles, bytes]]] = {}
    for path, item in pairs:
        if not path:
            value = item
        else:
            groups.setdefault(path[0], []).append((path[1:], item))
    return value, groups


_UNCHANGED = object()
"""Sentinel: the delete did not find the key."""
