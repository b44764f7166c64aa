"""Key-value storage interface (the LevelDB role in the paper's stack).

The paper persists block data and state data in LevelDB.  We define a
minimal store interface with two implementations: an in-memory store for
tests and simulations, and a log-structured merge store
(:mod:`repro.storage.lsm`) that mirrors LevelDB's architecture (WAL,
memtable, sorted immutable tables, compaction).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import StorageError


@dataclass
class WriteBatch:
    """An atomic group of put/delete operations."""

    operations: list[tuple[bytes, bytes | None]] = field(default_factory=list)

    def put(self, key: bytes, value: bytes) -> "WriteBatch":
        """Queue an insert/overwrite."""
        _check_key(key)
        if value is None:
            raise StorageError("value must not be None; use delete()")
        self.operations.append((key, value))
        return self

    def delete(self, key: bytes) -> "WriteBatch":
        """Queue a deletion (a tombstone in LSM terms)."""
        _check_key(key)
        self.operations.append((key, None))
        return self

    def __len__(self) -> int:
        return len(self.operations)


class KVStore(abc.ABC):
    """Ordered byte-key/byte-value store."""

    @abc.abstractmethod
    def get(self, key: bytes) -> bytes | None:
        """Return the value for ``key``, or ``None`` if absent."""

    @abc.abstractmethod
    def put(self, key: bytes, value: bytes) -> None:
        """Insert or overwrite one entry."""

    @abc.abstractmethod
    def delete(self, key: bytes) -> None:
        """Remove an entry (no-op when absent)."""

    @abc.abstractmethod
    def write(self, batch: WriteBatch) -> None:
        """Apply a batch atomically (durable stores: also across a crash)."""

    @abc.abstractmethod
    def scan(self, prefix: bytes = b"") -> Iterator[tuple[bytes, bytes]]:
        """Yield ``(key, value)`` pairs with the prefix, in key order."""

    def scan_range(
        self, start: bytes = b"", end: bytes | None = None
    ) -> Iterator[tuple[bytes, bytes]]:
        """Yield entries with ``start <= key < end`` in key order.

        ``end=None`` means unbounded.  The default implementation filters
        a full scan; ordered engines may override with an early-stopping
        variant.
        """
        for key, value in self.scan():
            if key < start:
                continue
            if end is not None and key >= end:
                break
            yield key, value

    @abc.abstractmethod
    def close(self) -> None:
        """Flush and release resources; further access is an error."""

    def has(self, key: bytes) -> bool:
        """True when ``key`` is present."""
        return self.get(key) is not None

    def __enter__(self) -> "KVStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _check_key(key: bytes) -> None:
    if not isinstance(key, (bytes, bytearray)) or len(key) == 0:
        raise StorageError(f"keys must be non-empty bytes, got {key!r}")
