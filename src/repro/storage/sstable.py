"""Immutable sorted string tables (SSTables).

Frozen snapshots of a memtable, written once and then only read.  Layout::

    [entry]*                 -- sorted by key
    [index]                  -- every key with its file offset
    [bloom]                  -- bloom filter bits
    footer: index_off:u64 | bloom_off:u64 | entry_count:u32 | crc:u32 | magic

    entry := flags:u8 | key_len:u32 | key | value_len:u32 | value
             (tombstones set flags bit 0 and omit the value section)

The index is loaded eagerly (it is small) and point lookups binary-search
it after a bloom-filter pre-check, mirroring LevelDB's read path.
"""

from __future__ import annotations

import bisect
import os
import struct
import zlib
from pathlib import Path
from typing import Iterator

from repro.errors import CorruptionError

_FOOTER = struct.Struct("<QQII8s")
_U32 = struct.Struct("<I")
_MAGIC = b"REPROSST"

_FLAG_TOMBSTONE = 0x01


class BloomFilter:
    """Simple double-hash bloom filter over byte keys."""

    def __init__(self, bit_count: int, hash_count: int, bits: bytearray | None = None) -> None:
        self.bit_count = max(8, bit_count)
        self.hash_count = max(1, hash_count)
        self.bits = bits if bits is not None else bytearray((self.bit_count + 7) // 8)

    @classmethod
    def for_capacity(cls, capacity: int, bits_per_key: int = 10) -> "BloomFilter":
        """Size the filter for an expected number of keys (~1% FPR at 10)."""
        bit_count = max(64, capacity * bits_per_key)
        return cls(bit_count=bit_count, hash_count=7)

    def add(self, key: bytes) -> None:
        """Insert a key."""
        for position in self._positions(key):
            self.bits[position // 8] |= 1 << (position % 8)

    def may_contain(self, key: bytes) -> bool:
        """False means definitely absent; True means possibly present."""
        return all(
            self.bits[position // 8] & (1 << (position % 8))
            for position in self._positions(key)
        )

    def _positions(self, key: bytes) -> Iterator[int]:
        h1 = zlib.crc32(key)
        h2 = zlib.adler32(key) or 1
        for i in range(self.hash_count):
            yield (h1 + i * h2) % self.bit_count

    def to_bytes(self) -> bytes:
        """Serialise for the SSTable bloom section."""
        return _U32.pack(self.bit_count) + _U32.pack(self.hash_count) + bytes(self.bits)

    @classmethod
    def from_bytes(cls, data: bytes) -> "BloomFilter":
        """Parse the bloom section."""
        (bit_count,) = _U32.unpack_from(data, 0)
        (hash_count,) = _U32.unpack_from(data, 4)
        return cls(bit_count, hash_count, bytearray(data[8:]))


def write_sstable(path: str | Path, entries: list[tuple[bytes, bytes | None]]) -> None:
    """Write sorted ``(key, value_or_tombstone)`` entries to a new table.

    ``entries`` must be sorted by key with no duplicates; this is the
    memtable's contract.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    bloom = BloomFilter.for_capacity(len(entries))
    index_parts: list[bytes] = []
    body = bytearray()
    for key, value in entries:
        offset = len(body)
        index_parts.append(_U32.pack(len(key)) + key + struct.pack("<Q", offset))
        flags = _FLAG_TOMBSTONE if value is None else 0
        body.append(flags)
        body.extend(_U32.pack(len(key)))
        body.extend(key)
        if value is not None:
            body.extend(_U32.pack(len(value)))
            body.extend(value)
        bloom.add(key)
    index_blob = b"".join(index_parts)
    bloom_blob = bloom.to_bytes()
    index_off = len(body)
    bloom_off = index_off + len(index_blob)
    crc = zlib.crc32(bytes(body) + index_blob + bloom_blob)
    footer = _FOOTER.pack(index_off, bloom_off, len(entries), crc, _MAGIC)
    tmp_path = path.with_suffix(path.suffix + ".tmp")
    with open(tmp_path, "wb") as out:
        out.write(body)
        out.write(index_blob)
        out.write(bloom_blob)
        out.write(footer)
        out.flush()
        # The manifest may reference this table the moment we return, so
        # the data must be durable before the rename publishes it.
        os.fsync(out.fileno())
    tmp_path.replace(path)


class SSTable:
    """Reader for one table file; index and bloom stay in memory."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        data = self.path.read_bytes()
        if len(data) < _FOOTER.size:
            raise CorruptionError(f"{self.path}: file too small")
        index_off, bloom_off, entry_count, crc, magic = _FOOTER.unpack(
            data[-_FOOTER.size :]
        )
        if magic != _MAGIC:
            raise CorruptionError(f"{self.path}: bad magic {magic!r}")
        payload = data[: -_FOOTER.size]
        if zlib.crc32(payload) != crc:
            raise CorruptionError(f"{self.path}: checksum mismatch")
        self._body = payload[:index_off]
        self._keys: list[bytes] = []
        self._offsets: list[int] = []
        self._parse_index(payload[index_off:bloom_off], entry_count)
        self.bloom = BloomFilter.from_bytes(payload[bloom_off:])
        self.entry_count = entry_count

    def _parse_index(self, blob: bytes, entry_count: int) -> None:
        offset = 0
        for _ in range(entry_count):
            (key_len,) = _U32.unpack_from(blob, offset)
            offset += _U32.size
            key = blob[offset : offset + key_len]
            offset += key_len
            (entry_off,) = struct.unpack_from("<Q", blob, offset)
            offset += 8
            self._keys.append(key)
            self._offsets.append(entry_off)

    def get(self, key: bytes) -> tuple[bool, bytes | None]:
        """``(present, value)``; a present tombstone yields ``(True, None)``."""
        if not self.bloom.may_contain(key):
            return False, None
        position = bisect.bisect_left(self._keys, key)
        if position >= len(self._keys) or self._keys[position] != key:
            return False, None
        return True, self._read_entry(self._offsets[position])[1]

    def items(self) -> Iterator[tuple[bytes, bytes | None]]:
        """All entries in key order, tombstones included."""
        for offset in self._offsets:
            yield self._read_entry(offset)

    def _read_entry(self, offset: int) -> tuple[bytes, bytes | None]:
        flags = self._body[offset]
        (key_len,) = _U32.unpack_from(self._body, offset + 1)
        key_start = offset + 1 + _U32.size
        key = self._body[key_start : key_start + key_len]
        if flags & _FLAG_TOMBSTONE:
            return key, None
        value_start = key_start + key_len
        (value_len,) = _U32.unpack_from(self._body, value_start)
        value = self._body[value_start + _U32.size : value_start + _U32.size + value_len]
        return key, value
