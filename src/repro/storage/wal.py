"""Write-ahead log with per-record checksums.

Every mutation of the LSM store is appended here before it touches the
memtable, so acknowledged writes survive a crash.  Record format::

    [u32 crc32][u32 payload_len][payload]
    payload := entry                          (one put or delete)
             | 2:u8 | count:u32 | entry*      (a batch record)
    entry   := op:u8 | key_len:u32 | key | value_len:u32 | value

``op`` is 0 for delete (no value section) and 1 for put.  A payload that
starts with 2 is a *batch record*: all its entries sit under the one
checksum, so a torn write loses the whole batch, never part of it — an
epoch seal recovers all of its trie nodes or none.  Logs written before
batch records existed hold only single-entry payloads and replay
unchanged.  Replay stops at the first corrupt or truncated record — the
tail beyond a torn write is discarded, matching LevelDB semantics.
"""

from __future__ import annotations

import os
import struct
import zlib
from pathlib import Path
from typing import Iterator

from repro.errors import CorruptionError, StorageError

_HEADER = struct.Struct("<II")
_U32 = struct.Struct("<I")
_OP_U32 = struct.Struct("<BI")

OP_DELETE = 0
OP_PUT = 1
OP_BATCH = 2


class WriteAheadLog:
    """Append-only durable log of put/delete records."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._file = open(self.path, "ab")

    def append_put(self, key: bytes, value: bytes) -> None:
        """Log an insert/overwrite."""
        self._append(_encode_payload(OP_PUT, key, value))

    def append_delete(self, key: bytes) -> None:
        """Log a deletion."""
        self._append(_encode_payload(OP_DELETE, key, b""))

    def append_many(self, operations: list[tuple[bytes, bytes | None]]) -> None:
        """Log a batch as one checksummed record with a single flush."""
        parts = [_OP_U32.pack(OP_BATCH, len(operations))]
        for key, value in operations:
            if value is None:
                parts.append(_encode_payload(OP_DELETE, key, b""))
            else:
                parts.append(_encode_payload(OP_PUT, key, value))
        self._append(b"".join(parts))

    def sync(self) -> None:
        """Force the OS to persist buffered records."""
        self._ensure_open()
        self._file.flush()
        os.fsync(self._file.fileno())

    def truncate(self) -> None:
        """Discard all records (called after a successful memtable flush)."""
        self._ensure_open()
        self._file.close()
        with open(self.path, "wb"):
            pass
        self._file = open(self.path, "ab")

    def close(self) -> None:
        """Flush and close the log file."""
        if self._file.closed:
            return
        self._file.flush()
        self._file.close()

    def _append(self, payload: bytes) -> None:
        self._write(_frame(payload))

    def _write(self, data: bytes) -> None:
        self._ensure_open()
        self._file.write(data)
        self._file.flush()

    def _ensure_open(self) -> None:
        if self._file.closed:
            raise StorageError("write-ahead log is closed")


def replay(path: str | Path, strict: bool = False) -> Iterator[tuple[bytes, bytes | None]]:
    """Yield ``(key, value_or_None)`` for every intact record in the log.

    With ``strict=False`` (recovery mode) replay stops silently at the
    first torn or corrupt record; with ``strict=True`` it raises
    :class:`~repro.errors.CorruptionError` instead (used by tests and by
    integrity audits).
    """
    path = Path(path)
    if not path.exists():
        return
    with open(path, "rb") as log_file:
        data = log_file.read()
    offset = 0
    total = len(data)
    while offset < total:
        if offset + _HEADER.size > total:
            if strict:
                raise CorruptionError("truncated record header")
            return
        crc, length = _HEADER.unpack_from(data, offset)
        offset += _HEADER.size
        if offset + length > total:
            if strict:
                raise CorruptionError("truncated record payload")
            return
        payload = data[offset : offset + length]
        offset += length
        if zlib.crc32(payload) != crc:
            if strict:
                raise CorruptionError("record checksum mismatch")
            return
        yield from _decode_payload(payload)


def _frame(payload: bytes) -> bytes:
    return _HEADER.pack(zlib.crc32(payload), len(payload)) + payload


def _encode_payload(op: int, key: bytes, value: bytes) -> bytes:
    parts = [_OP_U32.pack(op, len(key)), key]
    if op == OP_PUT:
        parts.append(_U32.pack(len(value)))
        parts.append(value)
    return b"".join(parts)


def _decode_payload(payload: bytes) -> list[tuple[bytes, bytes | None]]:
    """The operations of one intact record (several for a batch record)."""
    if payload[0] != OP_BATCH:
        return [_decode_entry(payload, 0)[0]]
    _, count = _OP_U32.unpack_from(payload, 0)
    offset = _OP_U32.size
    operations = []
    for _ in range(count):
        operation, offset = _decode_entry(payload, offset)
        operations.append(operation)
    return operations


def _decode_entry(payload: bytes, offset: int) -> tuple[tuple[bytes, bytes | None], int]:
    op, key_len = _OP_U32.unpack_from(payload, offset)
    key_start = offset + _OP_U32.size
    value_start = key_start + key_len
    key = payload[key_start:value_start]
    if op == OP_DELETE:
        return (key, None), value_start
    if op != OP_PUT:
        raise CorruptionError(f"unknown WAL opcode {op}")
    (value_len,) = _U32.unpack_from(payload, value_start)
    value_start += _U32.size
    return (key, payload[value_start : value_start + value_len]), value_start + value_len
