"""LRU caching for trie nodes backed by a key-value store.

Reading one state entry walks ~8 trie nodes; when nodes live in the LSM
store every walk pays deserialisation and (after a flush) file reads.
``LRUCacheMapping`` interposes a bounded in-memory cache — the same role
LevelDB's block cache plays in the paper's stack.  Writes go through to
the backing mapping immediately (write-through), so crash recovery never
depends on the cache.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, MutableMapping

from repro.analysis import race
from repro.errors import StateError


@dataclass
class CacheStats:
    """Hit/miss counters (observability and tests).

    Increments go through the ``record_*`` methods, which hold a private
    lock: caches sit under the trie node store, which the streaming
    engine's background commit thread reads concurrently with main-thread
    fallback lookups, and a bare ``hits += 1`` is a read-modify-write
    that loses updates under that interleaving (surfaced by the ND201
    rule / concurrency sanitizer, pinned by
    ``tests/state/test_cache_threads.py``).  Reading the fields without
    the lock stays fine — torn reads of a single int cannot happen under
    the GIL and observability tolerates staleness.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def _bump(self, counter: str) -> None:
        with self._lock:
            race.lock_acquired(("cache-stats", id(self)))
            race.trace_write(("cache-stats", id(self), counter))
            setattr(self, counter, getattr(self, counter) + 1)
            race.lock_released(("cache-stats", id(self)))

    def record_hit(self) -> None:
        self._bump("hits")

    def record_miss(self) -> None:
        self._bump("misses")

    def record_eviction(self) -> None:
        self._bump("evictions")

    @property
    def hit_rate(self) -> float:
        """Fraction of reads served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class LRUCacheMapping(MutableMapping[bytes, bytes]):
    """Write-through LRU cache over another byte mapping."""

    def __init__(self, backing: MutableMapping[bytes, bytes], capacity: int = 4096) -> None:
        if capacity <= 0:
            raise StateError("cache capacity must be positive")
        self._backing = backing
        self._capacity = capacity
        self._cache: OrderedDict[bytes, bytes] = OrderedDict()
        self.stats = CacheStats()

    def __getitem__(self, key: bytes) -> bytes:
        cached = self._cache.get(key)
        if cached is not None:
            self._cache.move_to_end(key)
            self.stats.record_hit()
            return cached
        self.stats.record_miss()
        value = self._backing[key]  # KeyError propagates
        self._insert(key, value)
        return value

    def __setitem__(self, key: bytes, value: bytes) -> None:
        self._backing[key] = value
        self._insert(key, value)

    def __delitem__(self, key: bytes) -> None:
        self._cache.pop(key, None)
        del self._backing[key]

    def update(  # type: ignore[override]  # bytes keys: no keyword form
        self, other: "Mapping[bytes, bytes] | Iterable[tuple[bytes, bytes]]" = (), /
    ) -> None:
        """Write through as one backing ``update`` (one store batch)."""
        pairs = list(other.items() if isinstance(other, Mapping) else other)
        self._backing.update(pairs)
        for key, value in pairs:
            self._insert(key, value)

    def __iter__(self) -> Iterator[bytes]:
        return iter(self._backing)

    def __len__(self) -> int:
        return len(self._backing)

    def __contains__(self, key: object) -> bool:
        if key in self._cache:
            return True
        return key in self._backing

    def _insert(self, key: bytes, value: bytes) -> None:
        self._cache[key] = value
        self._cache.move_to_end(key)
        while len(self._cache) > self._capacity:
            self._cache.popitem(last=False)
            self.stats.record_eviction()

    @property
    def cached_count(self) -> int:
        """Entries currently held in memory."""
        return len(self._cache)
