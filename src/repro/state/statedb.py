"""The world state: a flat dict, sealed into an MPT once per epoch.

``StateDB`` maps string addresses to non-negative integers (account and
contract-slot balances).  Reads are ``dict`` lookups — staged writes
first — and never walk the trie.  :meth:`StateDB.commit` seals the
epoch: the whole staged set reaches the Merkle Patricia Trie through one
:meth:`~repro.state.mpt.trie.MerklePatriciaTrie.put_batch` (one subtree
rebuild, unchanged children keep their hashes, every new node lands in
the store as one atomic write batch) and only then folds into the dict.

The trie is the only producer of roots and proofs.  Between commits it
holds the last sealed epoch and the dict is its unauthenticated replica;
at each commit the two re-converge.  Because the trie is copy-on-write,
every sealed root stays readable: a snapshot reads the dict while the
state is still at its root and the trie once a later commit moved on.

Node bytes live in memory or inside any :class:`~repro.storage.api.KVStore`
(the LevelDB role) through :class:`KVNodeMapping`.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, MutableMapping

from repro.analysis import race
from repro.errors import StateError
from repro.obs.tracer import Tracer, maybe_span
from repro.state.account import decode_int, encode_int
from repro.state.mpt.trie import DEFAULT_DECODED_CACHE, EMPTY_ROOT, MerklePatriciaTrie, NodeStore
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
    """Immutable read view of the state at one sealed root.

    Served from the flat dict while the state is still at ``root``, and
    from the copy-on-write trie once a later commit has moved it on.
    """

    def __init__(self, db: "StateDB", root: bytes) -> None:
        self._db = db
        self._trie = MerklePatriciaTrie(store=db._nodes, root=root)
        self.root = root

    def get(self, address: Address) -> int:
        """Value at ``address`` (0 when the address was never written)."""
        db = self._db
        if db._trie.root == self.root:
            return db._flat.get(address, 0)
        raw = self._trie.get(address.encode())
        return 0 if raw is None else decode_int(raw)

    def items(self) -> Iterator[tuple[Address, int]]:
        """All populated addresses in key order."""
        if self._db._trie.root == self.root:
            yield from self._db.items()
            return
        for key, value in self._trie.items():
            yield key.decode(), decode_int(value)


class StateDB:
    """Authenticated account state: dict reads, one trie seal per commit.

    Opening at a non-empty ``root`` hydrates the dict from the trie.
    ``tracer`` (optional) records one ``state.trie_seal`` span per commit.
    """

    def __init__(
        self,
        store: KVStore | None = None,
        root: bytes = EMPTY_ROOT,
        tracer: Tracer | None = None,
    ) -> None:
        self._nodes = NodeStore(
            KVNodeMapping(store) if store is not None else None,
            decoded_cache_size=DEFAULT_DECODED_CACHE,
        )
        self._trie = MerklePatriciaTrie(store=self._nodes, root=root)
        self.tracer = tracer
        self._dirty: dict[Address, int] = {}
        self._flat: dict[Address, int] = {
            key.decode(): decode_int(value) for key, value in self._trie.items()
        }

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
        return self._flat.get(address, 0)

    def peek(self, address: Address) -> int:
        """Race-tolerant read of the last *folded* value, for cross-epoch
        speculation.

        The streaming engine speculates epoch ``e+1`` on the main thread
        while epoch ``e``'s commit mutates this state on a background
        stage.  Each dict operation here is atomic under the GIL, and
        the only addresses mutated during a commit are the epoch's write
        delta — so a ``peek`` of any *other* address is exact, and a
        peek of a written address returns either its old or new value
        (the engine re-executes every transaction that read one of
        those, so a torn value can never reach a committed result).
        Staged writes are not consulted: the committer stages them as
        soon as CC ends, which can fall inside the overlapping
        speculation, and then what a speculated transaction saw — and
        whether it reverted — would depend on thread timing; ``commit``
        folds them in one ``dict.update`` only after the trie seal,
        well after that speculation is over.

        The sanitizer hook is *relaxed* — this read races with the
        committing thread's relaxed per-address writes by design (the
        C11-atomics analogue), so the detector waives the pair while
        still flagging any plain access that slips into the window.
        """
        if race.active():
            race.trace_read(("flat", id(self), address), relaxed=True)
        return self._flat.get(address, 0)

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
        """Seal staged writes into the trie in one batch, then fold them
        into the flat dict; returns the new root."""
        dirty = self._dirty
        if not dirty:
            return self._trie.root
        with maybe_span(self.tracer, "state.trie_seal") as span:
            self._trie.put_batch(
                (address.encode(), encode_int(value)) for address, value in dirty.items()
            )
            span.set(writes=len(dirty), accounts=len(self._flat))
        if race.active():
            # Relaxed per-address writes: cross-epoch speculation may
            # peek these concurrently (see :meth:`peek`); both sides are
            # GIL-atomic dict operations and the engine re-executes any
            # transaction that observed a mutated address.
            for address in dirty:
                race.trace_write(("flat", id(self), address), relaxed=True)
        self._flat.update(dirty)
        dirty.clear()
        return self._trie.root

    def snapshot(self, root: bytes | None = None) -> StateSnapshot:
        """Read view pinned at ``root`` (default: last committed root)."""
        return StateSnapshot(self, root if root is not None else self._trie.root)

    def seed(self, values: Mapping[Address, int]) -> bytes:
        """Initialise many addresses and commit (genesis helper)."""
        self.apply_writes(values)
        return self.commit()

    def items(self) -> Iterator[tuple[Address, int]]:
        """Committed entries in key order (dirty writes excluded)."""
        for address in sorted(self._flat, key=str.encode):
            yield address, self._flat[address]
