"""Flat account state with journaled snapshot layers.

``StateDB`` routes every read through the copy-on-write trie and every
commit through one ``put`` — one full path re-encode and re-hash — per
dirty key.  At realistic account counts that is the dominant commit
cost.  :class:`FlatStateDB` keeps the *same* authenticated root sequence
while moving the hot path onto plain dictionaries:

* **Reads** hit a flat ``dict`` (dirty overlay first), never the trie.
* **Commits** push a *journal layer* — the map of overwritten old
  values — then seal the epoch by folding the whole dirty set into the
  MPT with :meth:`~repro.state.mpt.trie.MerklePatriciaTrie.put_batch`
  (one subtree rebuild, unchanged children keep their hashes, and all
  new nodes reach the store as one atomic write batch).
* **Historical reads** (``snapshot(old_root)``) replay the retained
  journal layers backwards over the flat dict; roots older than the
  journal window fall back to the trie-backed oracle, which stays
  correct because the trie is copy-on-write.
* **Rollback** (:meth:`FlatStateDB.rollback_to`) pops journal layers,
  restoring both the flat dict and the root, without touching the trie.

The lazy-root invariant: between commits the trie holds the *previous*
epoch's state; the flat dict is the only up-to-date view.  At each
commit the two re-converge, and the root is bit-identical to what the
trie-backed ``StateDB`` would have produced for the same writes (swept
by ``tests/state/test_flat_equivalence.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.analysis import race
from repro.errors import StateError
from repro.obs.tracer import Tracer, maybe_span
from repro.state.account import decode_int, encode_int
from repro.state.mpt.trie import DEFAULT_DECODED_CACHE, EMPTY_ROOT, MerklePatriciaTrie
from repro.state.statedb import StateDB, StateSnapshot
from repro.storage.api import KVStore
from repro.txn.rwset import Address

DEFAULT_JOURNAL_LAYERS = 64
"""Epoch commits whose undo maps are retained for cheap historical reads."""


@dataclass
class JournalLayer:
    """Undo record of one epoch commit.

    ``undo`` maps every address the commit changed to its value *before*
    the commit (``None`` when the address did not exist yet).  Applying
    ``undo`` over the flat dict rewinds exactly one epoch.
    """

    root_before: bytes
    root_after: bytes
    undo: dict[Address, int | None] = field(default_factory=dict)


class FlatSnapshot:
    """Read view pinned at one root, served from flat state + journals.

    Drop-in for :class:`~repro.state.statedb.StateSnapshot`: exposes
    ``root``, :meth:`get`, and :meth:`items`.  Reads stay O(journal
    depth) while the pinned root is inside the retained window and
    degrade gracefully to authenticated trie reads once it ages out.
    """

    def __init__(self, db: "FlatStateDB", root: bytes) -> None:
        self._db = db
        self.root = root

    def get(self, address: Address) -> int:
        """Value at ``address`` (0 when the address was never written)."""
        return self._db._value_at(self.root, address)

    def items(self) -> Iterator[tuple[Address, int]]:
        """All populated addresses in key order."""
        yield from self._db._items_at(self.root)


class FlatStateDB(StateDB):
    """Authenticated account state with a flat read/write fast path.

    Same contract as :class:`~repro.state.statedb.StateDB` — same roots,
    same snapshot semantics — but reads are dict lookups and each commit
    costs one batched subtree rebuild instead of per-key path rewrites.
    ``max_journal_layers`` bounds the undo window; ``tracer`` (optional)
    records ``state.trie_seal`` / ``state.flat_read`` spans per commit.
    """

    DECODED_CACHE_SIZE = DEFAULT_DECODED_CACHE
    """Fast path keeps decoded trie nodes hot across epoch seals."""

    def __init__(
        self,
        store: KVStore | None = None,
        root: bytes = EMPTY_ROOT,
        cache_size: int = 0,
        max_journal_layers: int = DEFAULT_JOURNAL_LAYERS,
        tracer: Tracer | None = None,
    ) -> None:
        if max_journal_layers < 0:
            raise StateError("max_journal_layers must be non-negative")
        super().__init__(store=store, root=root, cache_size=cache_size)
        self.max_journal_layers = max_journal_layers
        self.tracer = tracer
        self._journal: list[JournalLayer] = []
        self._flat: dict[Address, int] = {}
        if root != EMPTY_ROOT:
            # Hydrate once from the authenticated trie; afterwards the
            # flat dict is the single source of truth for reads.
            for key, value in self._trie.items():
                self._flat[key.decode()] = decode_int(value)
        self.flat_reads = 0
        self.fallback_reads = 0

    # -------------------------------------------------------------- hot path

    def get(self, address: Address) -> int:
        """Current value, observing uncommitted writes (dict lookups only)."""
        if address in self._dirty:
            return self._dirty[address]
        self.flat_reads += 1
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
        well after that speculation is over.  No stats counters are
        bumped: ``flat_reads`` is reset by the concurrent commit and a
        racing increment would corrupt it.

        The sanitizer hook is *relaxed* — this read races with the
        committing thread's relaxed per-address writes by design (the
        C11-atomics analogue), so the detector waives the pair while
        still flagging any plain access that slips into the window.
        """
        if race.active():
            race.trace_read(("flat", id(self), address), relaxed=True)
        return self._flat.get(address, 0)

    def commit(self) -> bytes:
        """Fold staged writes into flat state, journal the old values,
        and seal the epoch's authenticated root in one trie batch."""
        if not self._dirty:
            return self._trie.root
        root_before = self._trie.root
        undo: dict[Address, int | None] = {}
        for address, value in self._dirty.items():
            old = self._flat.get(address)
            if old != value:
                undo[address] = old
        reads = self.flat_reads
        with maybe_span(self.tracer, "state.trie_seal") as span:
            self._trie.put_batch(
                (address.encode(), encode_int(value))
                for address, value in self._dirty.items()
            )
            span.set(writes=len(self._dirty), accounts=len(self._flat))
        with maybe_span(self.tracer, "state.flat_read") as span:
            # Summary span: reads served flat since the previous seal.
            span.set(reads=reads, fallback=self.fallback_reads)
        self.flat_reads = 0
        if race.active():
            # Relaxed per-address writes: cross-epoch speculation may
            # peek these concurrently (see :meth:`peek`); both sides are
            # GIL-atomic dict operations and the engine re-executes any
            # transaction that observed a mutated address.
            for address in self._dirty:
                race.trace_write(("flat", id(self), address), relaxed=True)
        self._flat.update(self._dirty)
        self._dirty.clear()
        self._journal.append(
            JournalLayer(root_before=root_before, root_after=self._trie.root, undo=undo)
        )
        if len(self._journal) > self.max_journal_layers:
            del self._journal[: len(self._journal) - self.max_journal_layers]
        return self._trie.root

    # ------------------------------------------------------------- snapshots

    def snapshot(self, root: bytes | None = None) -> "FlatSnapshot | StateSnapshot":
        """Read view pinned at ``root`` (default: last committed root).

        Roots inside the journal window are served from flat state;
        anything older falls back to the trie-backed oracle view.
        """
        target = root if root is not None else self._trie.root
        if target == self._trie.root or self._journal_index(target) is not None:
            return FlatSnapshot(self, target)
        self.fallback_reads += 1
        return StateSnapshot(self._nodes, target)

    def rollback_to(self, root: bytes) -> None:
        """Rewind committed state to an earlier retained root.

        Pops journal layers, restoring the flat dict and the root in
        O(values changed since ``root``); staged writes are discarded.
        The trie keeps every node (copy-on-write), so no trie work at
        all.  Raises :class:`~repro.errors.StateError` when ``root`` has
        aged out of the journal window.
        """
        self._dirty.clear()
        if root == self._trie.root:
            return
        if self._journal_index(root) is None:
            raise StateError(
                f"root {root.hex()[:16]}... is outside the retained journal"
            )
        while self._journal:
            layer = self._journal.pop()
            for address, old in layer.undo.items():
                if old is None:
                    self._flat.pop(address, None)
                else:
                    self._flat[address] = old
            if layer.root_before == root:
                break
        self._trie.root = root

    def items(self) -> Iterator[tuple[Address, int]]:
        """Committed entries in key order (dirty writes excluded)."""
        for address in sorted(self._flat, key=str.encode):
            yield address, self._flat[address]

    @property
    def journal_depth(self) -> int:
        """Retained journal layers (observability and tests)."""
        return len(self._journal)

    # ------------------------------------------------------------- internals

    def _journal_index(self, root: bytes) -> int | None:
        for index, layer in enumerate(self._journal):
            if layer.root_before == root:
                return index
        return None

    def _value_at(self, root: bytes, address: Address) -> int:
        if root == self._trie.root:
            return self._flat.get(address, 0)
        value = self._flat.get(address)
        for layer in reversed(self._journal):
            if address in layer.undo:
                value = layer.undo[address]
            if layer.root_before == root:
                return value if value is not None else 0
        # The root aged out of the journal after this snapshot was taken:
        # fall back to an authenticated read (the trie retains all roots).
        self.fallback_reads += 1
        raw = MerklePatriciaTrie(store=self._nodes, root=root).get(address.encode())
        return 0 if raw is None else decode_int(raw)

    def _items_at(self, root: bytes) -> Iterator[tuple[Address, int]]:
        if root == self._trie.root:
            yield from self.items()
            return
        overlay: dict[Address, int | None] = {}
        for layer in reversed(self._journal):
            for address, old in layer.undo.items():
                overlay[address] = old
            if layer.root_before == root:
                merged: dict[Address, int] = dict(self._flat)
                for address, old in overlay.items():
                    if old is None:
                        merged.pop(address, None)
                    else:
                        merged[address] = old
                for address in sorted(merged, key=str.encode):
                    yield address, merged[address]
                return
        self.fallback_reads += 1
        for key, value in MerklePatriciaTrie(store=self._nodes, root=root).items():
            yield key.decode(), decode_int(value)


def make_statedb(
    store: KVStore | None = None,
    root: bytes = EMPTY_ROOT,
    cache_size: int = 0,
    flat: bool = True,
    tracer: Tracer | None = None,
) -> StateDB:
    """Build the configured state backend.

    ``flat=True`` (the default) returns the :class:`FlatStateDB` fast
    path; ``flat=False`` returns the trie-backed reference ``StateDB``
    oracle.  Both produce bit-identical root sequences.
    """
    if flat:
        return FlatStateDB(
            store=store, root=root, cache_size=cache_size, tracer=tracer
        )
    return StateDB(store=store, root=root, cache_size=cache_size)
