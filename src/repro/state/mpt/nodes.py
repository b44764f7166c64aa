"""MPT node types and their canonical serialisation.

Three node kinds, as in Ethereum's trie:

* **leaf** — ``[hp(path, leaf=True), value]``
* **extension** — ``[hp(path, leaf=False), child_ref]``
* **branch** — ``[ref_0 ... ref_15, value]`` (17 slots)

A *ref* is the SHA-256 hash of the child's RLP encoding (we do not inline
short nodes; roots remain deterministic, see DESIGN.md).  The empty ref is
the empty byte string.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.errors import TrieError
from repro.state.mpt.codec import rlp_bytes, rlp_decode, rlp_list
from repro.state.mpt.nibbles import Nibbles, hp_decode, hp_encode

EMPTY_REF = b""
"""Reference marking an absent child."""

_EMPTY_ITEM = b"\x80"
_REF_HEADER = b"\xa0"
"""RLP string header of a 32-byte item, i.e. of every non-empty ref."""


def hash_node(encoded: bytes) -> bytes:
    """Node reference: SHA-256 of the RLP encoding (Keccak substitute)."""
    return hashlib.sha256(encoded).digest()


# Never mutate a node: the decoded cache hands one instance to every
# reader.  The classes are not ``frozen`` only because a frozen dataclass
# pays ``object.__setattr__`` per field, in the seal's innermost loop.


@dataclass(slots=True)
class LeafNode:
    """Terminal node holding the remaining key path and the value."""

    path: Nibbles
    value: bytes

    def encode(self) -> bytes:
        """Canonical RLP serialisation."""
        return rlp_list(rlp_bytes(hp_encode(self.path, True)) + rlp_bytes(self.value))


@dataclass(slots=True)
class ExtensionNode:
    """Path-compressing node pointing at a single child."""

    path: Nibbles
    child: bytes

    def __post_init__(self) -> None:
        if not self.path:
            raise TrieError("extension node requires a non-empty path")
        if self.child == EMPTY_REF:
            raise TrieError("extension node requires a child reference")

    def encode(self) -> bytes:
        """Canonical RLP serialisation."""
        return rlp_list(rlp_bytes(hp_encode(self.path, False)) + rlp_bytes(self.child))


@dataclass(slots=True)
class BranchNode:
    """Sixteen-way fan-out node with an optional value."""

    children: tuple[bytes, ...] = field(default=(EMPTY_REF,) * 16)
    value: bytes | None = None

    def __post_init__(self) -> None:
        if len(self.children) != 16:
            raise TrieError("branch node requires exactly 16 child slots")

    def encode(self) -> bytes:
        """Canonical RLP serialisation (17-element list)."""
        items = [
            _EMPTY_ITEM if not ref else _REF_HEADER + ref if len(ref) == 32 else rlp_bytes(ref)
            for ref in self.children
        ]
        items.append(rlp_bytes(self.value) if self.value is not None else _EMPTY_ITEM)
        return rlp_list(b"".join(items))

    def child_count(self) -> int:
        """Number of occupied child slots."""
        return sum(1 for ref in self.children if ref != EMPTY_REF)

    def only_child(self) -> tuple[int, bytes]:
        """The single occupied slot (index, ref); requires child_count == 1."""
        for index, ref in enumerate(self.children):
            if ref != EMPTY_REF:
                return index, ref
        raise TrieError("branch node has no children")

    def with_child(self, index: int, ref: bytes) -> "BranchNode":
        """Copy with one child slot replaced."""
        children = list(self.children)
        children[index] = ref
        return BranchNode(children=tuple(children), value=self.value)

    def with_value(self, value: bytes | None) -> "BranchNode":
        """Copy with the value slot replaced."""
        return BranchNode(children=self.children, value=value)


Node = LeafNode | ExtensionNode | BranchNode


def decode_node(encoded: bytes) -> Node:
    """Parse a node from its canonical serialisation."""
    item = rlp_decode(encoded)
    if not isinstance(item, list):
        raise TrieError("node encoding must be a list")
    if len(item) == 17:
        *children, value = item
        if any(not isinstance(ref, bytes) for ref in children):
            raise TrieError("branch children must be byte refs")
        return BranchNode(
            children=tuple(children), value=value if value != b"" else None
        )
    if len(item) == 2:
        path_blob, payload = item
        if not isinstance(path_blob, bytes) or not isinstance(payload, bytes):
            raise TrieError("two-item node must contain byte strings")
        path, is_leaf = hp_decode(path_blob)
        if is_leaf:
            return LeafNode(path=path, value=payload)
        return ExtensionNode(path=path, child=payload)
    raise TrieError(f"node list must have 2 or 17 items, got {len(item)}")
