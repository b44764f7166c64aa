"""LSM upgrades: manifest crash safety, background compaction.

The dangerous window this file exists for: compaction drops tombstones,
so the merged table must become visible *atomically with* the removal of
its inputs.  A crash after the merged table is written but before the
manifest swap must leave the old manifest in charge — otherwise a
deleted key's tombstone vanishes while an older table still holds the
live value, and the delete silently un-happens.
"""

from __future__ import annotations

from repro.storage.lsm import MANIFEST_NAME, LSMStore


def fill(store: LSMStore, count: int, prefix: str = "key") -> dict[bytes, bytes]:
    written = {}
    for i in range(count):
        key = f"{prefix}-{i:04d}".encode()
        value = f"value-{i}".encode()
        store.put(key, value)
        written[key] = value
    return written


class TestCompactionCrashRecovery:
    def _store_with_tables(self, tmp_path, deletes=()):
        store = LSMStore(tmp_path / "db", flush_bytes=64, compaction_threshold=64)
        written = fill(store, 120)
        for key in deletes:
            store.delete(key)
            written.pop(key, None)
        store.flush()
        return store, written

    def test_crash_between_merged_write_and_manifest_swap(self, tmp_path):
        """Kill after the merged table is durable but before it is live."""
        deleted = [f"key-{i:04d}".encode() for i in range(0, 120, 9)]
        store, written = self._store_with_tables(tmp_path, deletes=deleted)
        inputs = list(store._tables)
        assert len(inputs) > 4
        # The crash point: the merged table file (tombstones dropped) is
        # written and fsynced, the manifest still lists the old tables.
        store._compact_build(inputs)
        store._wal.sync()
        store._wal._file.close()  # abrupt death, no _compact_install

        recovered = LSMStore(tmp_path / "db")
        for key, value in written.items():
            assert recovered.get(key) == value
        for key in deleted:
            assert recovered.get(key) is None, "tombstone resurrected"
        # The orphaned merged table was discarded on recovery.
        names = {t.path.name for t in recovered._tables}
        listed = set(
            (tmp_path / "db" / MANIFEST_NAME).read_text().split()
        )
        assert names == listed
        on_disk = {p.name for p in (tmp_path / "db").glob("table-*.sst")}
        assert on_disk == names
        recovered.close()

    def test_crash_after_manifest_swap_keeps_merged_view(self, tmp_path):
        deleted = [f"key-{i:04d}".encode() for i in range(0, 120, 7)]
        store, written = self._store_with_tables(tmp_path, deletes=deleted)
        inputs = list(store._tables)
        merged = store._compact_build(inputs)
        store._compact_install(inputs, merged)
        store._wal.sync()
        store._wal._file.close()

        recovered = LSMStore(tmp_path / "db")
        assert recovered.table_count == 1
        for key, value in written.items():
            assert recovered.get(key) == value
        for key in deleted:
            assert recovered.get(key) is None
        recovered.close()

    def test_legacy_directory_without_manifest_is_adopted(self, tmp_path):
        store = LSMStore(tmp_path / "db", flush_bytes=64)
        written = fill(store, 60)
        store.flush()
        store.close()
        manifest = tmp_path / "db" / MANIFEST_NAME
        manifest.unlink()  # pre-manifest layout: tables discovered by glob

        recovered = LSMStore(tmp_path / "db")
        assert manifest.exists(), "adoption must write a manifest"
        for key, value in written.items():
            assert recovered.get(key) == value
        recovered.close()


class TestBackgroundCompaction:
    def test_merges_without_losing_data(self, tmp_path):
        store = LSMStore(
            tmp_path / "db",
            flush_bytes=64,
            compaction_threshold=3,
            background_compaction=True,
        )
        written = fill(store, 200)
        deleted = [f"key-{i:04d}".encode() for i in range(0, 200, 11)]
        for key in deleted:
            store.delete(key)
            written.pop(key, None)
        store.flush()
        store.wait_compaction()
        for key, value in written.items():
            assert store.get(key) == value
        for key in deleted:
            assert store.get(key) is None
        store.close()

    def test_tables_flushed_during_merge_survive(self, tmp_path):
        store = LSMStore(tmp_path / "db", flush_bytes=1 << 20, compaction_threshold=64)
        first = fill(store, 80, prefix="old")
        store.flush()
        fill(store, 40, prefix="old")  # second table shadowing nothing
        store.flush()
        inputs = list(store._tables)
        merged = store._compact_build(inputs)
        # A flush lands *while the merge is in flight*.
        late = fill(store, 30, prefix="new")
        store.flush()
        store._compact_install(inputs, merged)
        for key, value in {**first, **late}.items():
            assert store.get(key) == value
        assert store.table_count == 2  # merged + the late table
        store.close()

    def test_close_drains_inflight_merge(self, tmp_path):
        store = LSMStore(
            tmp_path / "db",
            flush_bytes=64,
            compaction_threshold=2,
            background_compaction=True,
        )
        written = fill(store, 300)
        store.close()
        recovered = LSMStore(tmp_path / "db")
        for key, value in written.items():
            assert recovered.get(key) == value
        recovered.close()
