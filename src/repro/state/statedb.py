"""The mutable world state, authenticated by an MPT.

``StateDB`` maps string addresses to non-negative integers (account and
contract-slot balances).  Every commit produces a new trie root; because
the trie is copy-on-write, any historical root stays readable, which is
what snapshots (and the DAG pipeline's per-epoch state roots) rely on.

Node bytes can live in memory or inside any :class:`~repro.storage.api.KVStore`
(the LevelDB role) through :class:`KVNodeMapping`.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, MutableMapping

from repro.errors import StateError
from repro.state.account import decode_int, encode_int
from repro.state.mpt.trie import EMPTY_ROOT, MerklePatriciaTrie, NodeStore
from repro.storage.api import KVStore, WriteBatch
from repro.txn.rwset import Address


class KVNodeMapping(MutableMapping[bytes, bytes]):
    """Adapter exposing a KVStore as the trie's node mapping.

    ``len()`` needs the store's key count, which only a full scan can
    establish; :meth:`count` performs that scan once, caches the result,
    and keeps it current incrementally.  Until someone asks, mutations
    stay scan-free — the trie's save path never pays for the counter.
    """

    def __init__(self, store: KVStore, prefix: bytes = b"n:") -> None:
        self._store = store
        self._prefix = prefix
        self._count: int | None = None

    def __getitem__(self, key: bytes) -> bytes:
        value = self._store.get(self._prefix + key)
        if value is None:
            raise KeyError(key)
        return value

    def __setitem__(self, key: bytes, value: bytes) -> None:
        if self._count is not None and self._store.get(self._prefix + key) is None:
            self._count += 1
        self._store.put(self._prefix + key, value)

    def __delitem__(self, key: bytes) -> None:
        if self._count is not None and self._store.get(self._prefix + key) is not None:
            self._count -= 1
        self._store.delete(self._prefix + key)

    def update(  # type: ignore[override]  # bytes keys: no keyword form
        self, other: "Mapping[bytes, bytes] | Iterable[tuple[bytes, bytes]]" = (), /
    ) -> None:
        """Write many nodes as one atomic :class:`WriteBatch`."""
        prefix = self._prefix
        pairs = other.items() if isinstance(other, Mapping) else other
        operations: list[tuple[bytes, bytes | None]] = [
            (prefix + key, value) for key, value in pairs
        ]
        if self._count is not None:
            self._count += sum(1 for key, _ in operations if self._store.get(key) is None)
        self._store.write(WriteBatch(operations))

    def __iter__(self) -> Iterator[bytes]:
        offset = len(self._prefix)
        for key, _ in self._store.scan(self._prefix):
            yield key[offset:]

    def count(self) -> int:
        """Number of stored nodes (one scan, then tracked incrementally)."""
        if self._count is None:
            self._count = sum(1 for _ in self)
        return self._count

    def __len__(self) -> int:
        return self.count()


class StateSnapshot:
    """Immutable read view of the state at one root."""

    def __init__(self, store: NodeStore, root: bytes) -> None:
        self._trie = MerklePatriciaTrie(store=store, root=root)
        self.root = root

    def get(self, address: Address) -> int:
        """Value at ``address`` (0 when the address was never written)."""
        raw = self._trie.get(address.encode())
        return 0 if raw is None else decode_int(raw)

    def items(self) -> Iterator[tuple[Address, int]]:
        """All populated addresses in key order."""
        for key, value in self._trie.items():
            yield key.decode(), decode_int(value)


class StateDB:
    """Authenticated account state with cheap snapshots.

    Reads hit an in-memory cache of dirty entries first and fall through
    to the trie; :meth:`commit` folds the dirty set into the trie and
    returns the new root.
    """

    DECODED_CACHE_SIZE = 0
    """Decoded-node cache capacity; the flat fast path overrides this."""

    def __init__(
        self,
        store: KVStore | None = None,
        root: bytes = EMPTY_ROOT,
        cache_size: int = 0,
    ) -> None:
        backing = KVNodeMapping(store) if store is not None else None
        self.cache = None
        if backing is not None and cache_size > 0:
            from repro.state.cache import LRUCacheMapping

            backing = LRUCacheMapping(backing, capacity=cache_size)
            self.cache = backing
        # With an explicit node-byte LRU, leave the decoded-node cache off
        # so the configured cache sees every load and its hit-rate stats
        # (exported via --state-cache / record_state) stay truthful.
        self._nodes = NodeStore(
            backing,
            decoded_cache_size=0 if self.cache is not None else self.DECODED_CACHE_SIZE,
        )
        self._trie = MerklePatriciaTrie(store=self._nodes, root=root)
        self._dirty: dict[Address, int] = {}

    @property
    def root(self) -> bytes:
        """Root of the last committed state (dirty writes excluded)."""
        return self._trie.root

    @property
    def dirty_count(self) -> int:
        """Number of uncommitted writes."""
        return len(self._dirty)

    def get(self, address: Address) -> int:
        """Current value, observing uncommitted writes."""
        if address in self._dirty:
            return self._dirty[address]
        raw = self._trie.get(address.encode())
        return 0 if raw is None else decode_int(raw)

    def set(self, address: Address, value: int) -> None:
        """Stage a write (committed by :meth:`commit`)."""
        if value < 0:
            raise StateError(f"state values must be non-negative, got {value}")
        self._dirty[address] = value

    def apply_writes(self, writes: Mapping[Address, int]) -> None:
        """Stage a batch of writes (a transaction's write set)."""
        for address, value in writes.items():
            self.set(address, value)

    def commit(self) -> bytes:
        """Fold staged writes into the trie; returns the new root."""
        for address in sorted(self._dirty):
            self._trie.put(address.encode(), encode_int(self._dirty[address]))
        self._dirty.clear()
        return self._trie.root

    def rollback(self) -> None:
        """Discard staged writes."""
        self._dirty.clear()

    def snapshot(self, root: bytes | None = None) -> StateSnapshot:
        """Read view pinned at ``root`` (default: last committed root)."""
        return StateSnapshot(self._nodes, root if root is not None else self._trie.root)

    def seed(self, values: Mapping[Address, int]) -> bytes:
        """Initialise many addresses and commit (genesis helper)."""
        self.apply_writes(values)
        return self.commit()

    def items(self) -> Iterator[tuple[Address, int]]:
        """Committed entries in key order (dirty writes excluded)."""
        for key, value in self._trie.items():
            yield key.decode(), decode_int(value)
