"""Unit tests for the write-ahead log."""

from __future__ import annotations

import pytest

from repro.errors import CorruptionError
from repro.storage.wal import WriteAheadLog, replay


@pytest.fixture
def wal_path(tmp_path):
    return tmp_path / "wal.log"


class TestWAL:
    def test_put_and_delete_roundtrip(self, wal_path):
        wal = WriteAheadLog(wal_path)
        wal.append_put(b"alpha", b"1")
        wal.append_delete(b"beta")
        wal.append_put(b"alpha", b"2")
        wal.close()
        records = list(replay(wal_path))
        assert records == [(b"alpha", b"1"), (b"beta", None), (b"alpha", b"2")]

    def test_empty_log_replays_nothing(self, wal_path):
        WriteAheadLog(wal_path).close()
        assert list(replay(wal_path)) == []

    def test_missing_file_replays_nothing(self, tmp_path):
        assert list(replay(tmp_path / "never-created.log")) == []

    def test_batch_append(self, wal_path):
        wal = WriteAheadLog(wal_path)
        wal.append_many([(b"a", b"1"), (b"b", None), (b"c", b"3")])
        wal.close()
        assert list(replay(wal_path)) == [(b"a", b"1"), (b"b", None), (b"c", b"3")]

    def test_batch_is_one_record(self, wal_path):
        """Every truncation point inside a batch record replays none of it."""
        wal = WriteAheadLog(wal_path)
        wal.append_put(b"before", b"0")
        intact = wal_path.stat().st_size
        wal.append_many([(b"a", b"1"), (b"b", None), (b"c", b"3")])
        wal.close()
        data = wal_path.read_bytes()
        for size in range(intact, len(data)):
            wal_path.write_bytes(data[:size])
            assert list(replay(wal_path)) == [(b"before", b"0")], size
        wal_path.write_bytes(data[:-1])
        with pytest.raises(CorruptionError):
            list(replay(wal_path, strict=True))

    def test_batch_bitflip_drops_whole_batch(self, wal_path):
        wal = WriteAheadLog(wal_path)
        wal.append_many([(b"a", b"1"), (b"b", b"2")])
        wal.close()
        data = bytearray(wal_path.read_bytes())
        data[-1] ^= 0xFF  # inside the last entry; the first one is intact
        wal_path.write_bytes(bytes(data))
        assert list(replay(wal_path)) == []

    def test_log_without_batch_records_still_replays(self, wal_path):
        """Byte-level fixture of the format older versions wrote: one
        framed ``op | key_len | key [| value_len | value]`` per record."""
        import struct
        import zlib

        def frame(payload: bytes) -> bytes:
            return struct.pack("<II", zlib.crc32(payload), len(payload)) + payload

        put = b"\x01" + struct.pack("<I", 1) + b"a" + struct.pack("<I", 2) + b"v1"
        delete = b"\x00" + struct.pack("<I", 1) + b"b"
        wal_path.write_bytes(frame(put) + frame(delete))
        assert list(replay(wal_path, strict=True)) == [(b"a", b"v1"), (b"b", None)]

    def test_records_and_batches_interleave(self, wal_path):
        wal = WriteAheadLog(wal_path)
        wal.append_put(b"a", b"1")
        wal.append_many([(b"b", b"2"), (b"a", None)])
        wal.append_many([])
        wal.append_delete(b"b")
        wal.close()
        assert list(replay(wal_path, strict=True)) == [
            (b"a", b"1"),
            (b"b", b"2"),
            (b"a", None),
            (b"b", None),
        ]

    def test_truncate_keeps_one_open_handle(self, wal_path, monkeypatch):
        wal = WriteAheadLog(wal_path)
        wal.append_put(b"a", b"1")
        opened = []
        real_open = open

        def tracking_open(*args, **kwargs):
            handle = real_open(*args, **kwargs)
            opened.append(handle)
            return handle

        monkeypatch.setattr("builtins.open", tracking_open)
        wal.truncate()
        assert sum(not handle.closed for handle in opened) == 1
        wal.close()

    def test_truncate_discards_records(self, wal_path):
        wal = WriteAheadLog(wal_path)
        wal.append_put(b"a", b"1")
        wal.truncate()
        wal.append_put(b"b", b"2")
        wal.close()
        assert list(replay(wal_path)) == [(b"b", b"2")]

    def test_torn_tail_is_dropped(self, wal_path):
        wal = WriteAheadLog(wal_path)
        wal.append_put(b"good", b"1")
        wal.append_put(b"torn", b"2")
        wal.close()
        data = wal_path.read_bytes()
        wal_path.write_bytes(data[:-3])  # tear the final record
        assert list(replay(wal_path)) == [(b"good", b"1")]

    def test_torn_tail_strict_raises(self, wal_path):
        wal = WriteAheadLog(wal_path)
        wal.append_put(b"good", b"1")
        wal.close()
        wal_path.write_bytes(wal_path.read_bytes()[:-1])
        with pytest.raises(CorruptionError):
            list(replay(wal_path, strict=True))

    def test_bitflip_detected(self, wal_path):
        wal = WriteAheadLog(wal_path)
        wal.append_put(b"key", b"value")
        wal.close()
        data = bytearray(wal_path.read_bytes())
        data[-1] ^= 0xFF
        wal_path.write_bytes(bytes(data))
        assert list(replay(wal_path)) == []
        with pytest.raises(CorruptionError):
            list(replay(wal_path, strict=True))

    def test_records_after_corruption_not_replayed(self, wal_path):
        wal = WriteAheadLog(wal_path)
        wal.append_put(b"first", b"1")
        wal.append_put(b"second", b"2")
        wal.append_put(b"third", b"3")
        wal.close()
        data = bytearray(wal_path.read_bytes())
        # Flip a byte inside the middle record's payload.
        data[len(data) // 2] ^= 0xFF
        wal_path.write_bytes(bytes(data))
        records = list(replay(wal_path))
        assert records[0] == (b"first", b"1")
        assert len(records) < 3

    def test_binary_safe_values(self, wal_path):
        wal = WriteAheadLog(wal_path)
        key = bytes(range(256))
        value = b"\x00" * 100 + b"\xff" * 100
        wal.append_put(key, value)
        wal.close()
        assert list(replay(wal_path)) == [(key, value)]
