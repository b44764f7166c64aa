"""Failure injection: crashes, torn writes, and corrupted files.

The durability contract: every acknowledged write survives an abrupt
process death (WAL), a torn final record loses at most that record, and
corrupted persistent files are detected loudly instead of serving bad
data.
"""

from __future__ import annotations

import os

import pytest

from repro.errors import CorruptionError
from repro.storage import LSMStore, SSTable
from repro.storage.wal import replay


def crash(store: LSMStore) -> None:
    """Simulate an abrupt process death: no flush, no close.

    The OS would persist what was already written to the file; our WAL
    writes eagerly with flush-per-record, so nothing extra is needed —
    we simply abandon the handles (and fsync to model surviving data).
    """
    store._wal.sync()
    store._wal._file.close()


class TestCrashRecovery:
    def test_every_acknowledged_write_survives(self, tmp_path):
        store = LSMStore(tmp_path / "db")
        acknowledged = {}
        for i in range(300):
            key = f"key-{i:04d}".encode()
            value = f"value-{i}".encode()
            store.put(key, value)
            acknowledged[key] = value
        crash(store)
        recovered = LSMStore(tmp_path / "db")
        for key, value in acknowledged.items():
            assert recovered.get(key) == value
        recovered.close()

    def test_crash_mid_batch_recovers_whole_batch(self, tmp_path):
        from repro.storage import WriteBatch

        store = LSMStore(tmp_path / "db")
        batch = WriteBatch()
        for i in range(50):
            batch.put(f"batch-{i}".encode(), b"v")
        store.write(batch)
        crash(store)
        recovered = LSMStore(tmp_path / "db")
        assert all(recovered.get(f"batch-{i}".encode()) == b"v" for i in range(50))
        recovered.close()

    @pytest.mark.parametrize("cut", [1, 7, 200])
    def test_torn_batch_recovers_none_of_it(self, tmp_path, cut):
        """A batch is one WAL record: a torn tail never replays a prefix."""
        from repro.storage import WriteBatch

        store = LSMStore(tmp_path / "db")
        store.put(b"before", b"1")
        batch = WriteBatch()
        for i in range(50):
            batch.put(f"batch-{i:02d}".encode(), b"v")
        batch.delete(b"before")
        store.write(batch)
        crash(store)
        wal_path = tmp_path / "db" / "wal.log"
        data = wal_path.read_bytes()
        wal_path.write_bytes(data[:-cut])  # tear inside the batch record
        recovered = LSMStore(tmp_path / "db")
        assert recovered.get(b"before") == b"1"
        assert not any(recovered.has(f"batch-{i:02d}".encode()) for i in range(50))
        recovered.close()

    def test_crash_after_flush_and_more_writes(self, tmp_path):
        store = LSMStore(tmp_path / "db", flush_bytes=256)
        for i in range(100):
            store.put(f"old-{i:03d}".encode(), b"x" * 16)
        store.flush()
        store.put(b"fresh", b"wal-only")
        crash(store)
        recovered = LSMStore(tmp_path / "db", flush_bytes=256)
        assert recovered.get(b"old-000") == b"x" * 16
        assert recovered.get(b"fresh") == b"wal-only"
        recovered.close()

    def test_torn_final_record_loses_only_that_record(self, tmp_path):
        store = LSMStore(tmp_path / "db")
        store.put(b"safe", b"1")
        store.put(b"torn", b"2")
        crash(store)
        wal_path = tmp_path / "db" / "wal.log"
        data = wal_path.read_bytes()
        wal_path.write_bytes(data[:-2])  # tear the last record
        recovered = LSMStore(tmp_path / "db")
        assert recovered.get(b"safe") == b"1"
        assert recovered.get(b"torn") is None
        recovered.close()

    def test_repeated_crash_recover_cycles(self, tmp_path):
        expected = {}
        for cycle in range(5):
            store = LSMStore(tmp_path / "db", flush_bytes=512)
            # Everything from earlier cycles must still be there.
            for key, value in expected.items():
                assert store.get(key) == value, f"cycle {cycle}"
            for i in range(40):
                key = f"c{cycle}-k{i:02d}".encode()
                store.put(key, str(cycle).encode())
                expected[key] = str(cycle).encode()
            crash(store)


class TestCorruptionDetection:
    def test_corrupt_sstable_detected_on_open(self, tmp_path):
        store = LSMStore(tmp_path / "db")
        for i in range(50):
            store.put(f"k{i:03d}".encode(), b"v" * 20)
        store.flush()
        store.close()
        (sst_path,) = (tmp_path / "db").glob("table-*.sst")
        data = bytearray(sst_path.read_bytes())
        data[10] ^= 0xFF
        sst_path.write_bytes(bytes(data))
        with pytest.raises(CorruptionError):
            LSMStore(tmp_path / "db")

    def test_truncated_sstable_detected(self, tmp_path):
        store = LSMStore(tmp_path / "db")
        store.put(b"k", b"v")
        store.flush()
        store.close()
        (sst_path,) = (tmp_path / "db").glob("table-*.sst")
        sst_path.write_bytes(sst_path.read_bytes()[:10])
        with pytest.raises(CorruptionError):
            SSTable(sst_path)

    def test_leftover_tmp_file_ignored(self, tmp_path):
        store = LSMStore(tmp_path / "db")
        store.put(b"k", b"v")
        store.flush()
        store.close()
        # Simulate a crash mid-SSTable-write: a stray .tmp file remains.
        stray = tmp_path / "db" / "table-99999999.sst.tmp"
        stray.write_bytes(b"partial garbage")
        recovered = LSMStore(tmp_path / "db")
        assert recovered.get(b"k") == b"v"
        recovered.close()

    def test_wal_garbage_prefix_recovers_nothing_but_opens(self, tmp_path):
        directory = tmp_path / "db"
        directory.mkdir()
        (directory / "wal.log").write_bytes(os.urandom(64))
        store = LSMStore(directory)
        assert store.get(b"anything") is None
        store.put(b"new", b"write")
        assert store.get(b"new") == b"write"
        store.close()

    def test_strict_replay_flags_corruption(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_bytes(os.urandom(64))
        with pytest.raises(CorruptionError):
            list(replay(path, strict=True))
