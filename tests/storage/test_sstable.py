"""Unit tests for SSTables and the bloom filter."""

from __future__ import annotations

import pytest

from repro.errors import CorruptionError
from repro.storage.sstable import BloomFilter, SSTable, write_sstable


class TestBloomFilter:
    def test_added_keys_always_hit(self):
        bloom = BloomFilter.for_capacity(100)
        keys = [f"key-{i}".encode() for i in range(100)]
        for key in keys:
            bloom.add(key)
        assert all(bloom.may_contain(key) for key in keys)

    def test_false_positive_rate_reasonable(self):
        bloom = BloomFilter.for_capacity(1000)
        for i in range(1000):
            bloom.add(f"member-{i}".encode())
        false_positives = sum(
            1 for i in range(10_000) if bloom.may_contain(f"absent-{i}".encode())
        )
        assert false_positives < 500  # < 5% (expect ~1%)

    def test_serialisation_roundtrip(self):
        bloom = BloomFilter.for_capacity(50)
        bloom.add(b"hello")
        restored = BloomFilter.from_bytes(bloom.to_bytes())
        assert restored.may_contain(b"hello")
        assert restored.bit_count == bloom.bit_count


class TestSSTable:
    def entries(self):
        return [
            (b"a", b"1"),
            (b"b", None),  # tombstone
            (b"c", b"33"),
            (b"d", b""),  # empty value is legal and distinct from tombstone
        ]

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "t.sst"
        write_sstable(path, self.entries())
        table = SSTable(path)
        assert list(table.items()) == self.entries()

    def test_point_lookups(self, tmp_path):
        path = tmp_path / "t.sst"
        write_sstable(path, self.entries())
        table = SSTable(path)
        assert table.get(b"a") == (True, b"1")
        assert table.get(b"b") == (True, None)
        assert table.get(b"d") == (True, b"")
        assert table.get(b"zz") == (False, None)

    def test_empty_table(self, tmp_path):
        path = tmp_path / "empty.sst"
        write_sstable(path, [])
        table = SSTable(path)
        assert table.entry_count == 0
        assert table.get(b"anything") == (False, None)
        assert list(table.items()) == []

    def test_key_range(self, tmp_path):
        path = tmp_path / "t.sst"
        write_sstable(path, self.entries())
        table = SSTable(path)
        keys = [key for key, _ in table.items()]
        assert (keys[0], keys[-1]) == (b"a", b"d")

    def test_corrupt_body_detected(self, tmp_path):
        path = tmp_path / "t.sst"
        write_sstable(path, self.entries())
        data = bytearray(path.read_bytes())
        data[2] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptionError):
            SSTable(path)

    def test_bad_magic_detected(self, tmp_path):
        path = tmp_path / "t.sst"
        write_sstable(path, self.entries())
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # inside the magic
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptionError):
            SSTable(path)

    def test_truncated_file_detected(self, tmp_path):
        path = tmp_path / "t.sst"
        path.write_bytes(b"tiny")
        with pytest.raises(CorruptionError):
            SSTable(path)

    def test_large_table(self, tmp_path):
        entries = [(f"key-{i:06d}".encode(), f"value-{i}".encode()) for i in range(5000)]
        path = tmp_path / "large.sst"
        write_sstable(path, entries)
        table = SSTable(path)
        assert table.entry_count == 5000
        assert table.get(b"key-002500") == (True, b"value-2500")
        assert table.get(b"key-999999") == (False, None)
