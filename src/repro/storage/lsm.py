"""Log-structured merge store (the LevelDB substitute).

Write path: WAL append -> memtable; the memtable freezes into a new
SSTable when it exceeds ``flush_bytes``.  Read path: memtable, then
SSTables newest-first (bloom filters skip most).  When the number of
tables exceeds ``compaction_threshold`` they are merge-compacted into a
single table and tombstones are dropped; with ``background_compaction``
the merge runs on a worker thread while reads keep serving the old
tables, and the swap happens only after the merged table is fsynced and
the manifest updated.

Live tables are tracked in a ``MANIFEST`` file (one table file name per
line, oldest first), rewritten atomically (tmp + fsync + rename).  The
manifest is what makes compaction crash-safe: the merged table drops
tombstones, so it must only become visible *atomically together with*
the removal of the inputs — a crash between merged-table write and
manifest swap leaves the old manifest in charge, the orphaned merged
table is deleted on recovery, and no deleted key can resurrect.
Directories created by older versions (no manifest) are adopted by
loading tables in file-name order and writing a manifest immediately.

The store recovers after a crash by loading every SSTable the manifest
names and replaying the WAL into a fresh memtable.
"""

from __future__ import annotations

import heapq
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from pathlib import Path
from typing import Iterator

from repro.analysis import race
from repro.errors import CorruptionError, StorageError
from repro.obs.tracer import Tracer, maybe_span
from repro.storage.api import KVStore, WriteBatch, _check_key
from repro.storage.memtable import MemTable
from repro.storage.sstable import SSTable, write_sstable
from repro.storage.wal import WriteAheadLog, replay

DEFAULT_FLUSH_BYTES = 4 * 1024 * 1024
DEFAULT_COMPACTION_THRESHOLD = 8
MANIFEST_NAME = "MANIFEST"


def _fsync_dir(directory: Path) -> None:
    """Best-effort directory fsync (durability of renames on POSIX)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


class LSMStore(KVStore):
    """Durable ordered store backed by a WAL, a memtable, and SSTables.

    ``background_compaction`` moves merges onto a single worker thread;
    user-facing operations stay single-threaded (the store is not a
    concurrent map), only the compaction job runs concurrently and
    installs its result under a lock.  ``tracer`` (optional) records
    ``lsm.compact_bg`` spans.
    """

    def __init__(
        self,
        directory: str | Path,
        flush_bytes: int = DEFAULT_FLUSH_BYTES,
        compaction_threshold: int = DEFAULT_COMPACTION_THRESHOLD,
        background_compaction: bool = False,
        tracer: Tracer | None = None,
    ) -> None:
        if flush_bytes <= 0:
            raise StorageError("flush_bytes must be positive")
        if compaction_threshold < 2:
            raise StorageError("compaction_threshold must be at least 2")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.flush_bytes = flush_bytes
        self.compaction_threshold = compaction_threshold
        self.background_compaction = background_compaction
        self.tracer = tracer
        self._memtable = MemTable()
        self._tables: list[SSTable] = []  # oldest first
        self._next_table_id = 0
        self._closed = False
        self._lock = threading.RLock()
        self._compaction_pool: ThreadPoolExecutor | None = None
        self._compaction_future: "Future[None] | None" = None
        self._load_tables()
        self._wal = WriteAheadLog(self.directory / "wal.log")
        self._recover()

    # ------------------------------------------------------------------ API

    def get(self, key: bytes) -> bytes | None:
        self._ensure_open()
        _check_key(key)
        key = bytes(key)
        present, value = self._memtable.get(key)
        if present:
            return value
        return self._table_lookup(key)

    def _table_lookup(self, key: bytes) -> bytes | None:
        # Single attribute load: compaction publishes a *new* list under
        # the GIL and never mutates an installed one, so a lock-free read
        # observes either the old or the new stack (relaxed by design —
        # waived for the sanitizer, see _compact_install).
        race.trace_read(("lsm", id(self), "tables"), relaxed=True)
        tables = self._tables  # local ref: compaction swaps, never mutates
        for table in reversed(tables):
            present, value = table.get(key)
            if present:
                return value
        return None

    def put(self, key: bytes, value: bytes) -> None:
        self._ensure_open()
        _check_key(key)
        if value is None:
            raise StorageError("value must not be None; use delete()")
        key, value = bytes(key), bytes(value)
        self._wal.append_put(key, value)
        self._memtable.put(key, value)
        self._maybe_flush()

    def delete(self, key: bytes) -> None:
        self._ensure_open()
        _check_key(key)
        key = bytes(key)
        self._wal.append_delete(key)
        self._memtable.delete(key)
        self._maybe_flush()

    def write(self, batch: WriteBatch) -> None:
        self._ensure_open()
        if not batch.operations:
            return
        operations = [
            (bytes(key), None if value is None else bytes(value))
            for key, value in batch.operations
        ]
        # One WAL record, one flush check: recovery replays all of the
        # batch or none of it, and the memtable is never frozen mid-batch.
        self._wal.append_many(operations)
        for key, value in operations:
            if value is None:
                self._memtable.delete(key)
            else:
                self._memtable.put(key, value)
        self._maybe_flush()

    def scan(self, prefix: bytes = b"") -> Iterator[tuple[bytes, bytes]]:
        self._ensure_open()
        for key, value in self._merged_items():
            if value is None:
                continue
            if key.startswith(prefix):
                yield key, value

    def scan_range(
        self, start: bytes = b"", end: bytes | None = None
    ) -> Iterator[tuple[bytes, bytes]]:
        """Ordered range scan with early termination.

        The merged iterator is already key-ordered, so iteration stops as
        soon as ``end`` is reached instead of draining every table.
        """
        self._ensure_open()
        for key, value in self._merged_items():
            if value is None or key < start:
                continue
            if end is not None and key >= end:
                break
            yield key, value

    def close(self) -> None:
        if self._closed:
            return
        self.flush()
        self.wait_compaction()
        if self._compaction_pool is not None:
            self._compaction_pool.shutdown(wait=True)
            self._compaction_pool = None
        self._wal.close()
        self._closed = True

    # ----------------------------------------------------------- lifecycle

    def flush(self) -> None:
        """Freeze the memtable into a new SSTable and truncate the WAL."""
        self._ensure_open()
        if len(self._memtable) == 0:
            return
        with self._lock:
            table_id = self._next_table_id
            self._next_table_id += 1
        path = self._table_path(table_id)
        write_sstable(path, list(self._memtable.items()))
        with self._lock:
            race.lock_acquired(("lsm-tables", id(self)))
            race.trace_write(("lsm", id(self), "tables"), relaxed=True)
            self._tables.append(SSTable(path))
            self._write_manifest()
            race.lock_released(("lsm-tables", id(self)))
        self._memtable.clear()
        self._wal.truncate()
        self._maybe_compact()

    def compact(self) -> None:
        """Merge every SSTable into one, dropping shadowed data and tombstones.

        Synchronous variant: builds and installs in the calling thread.
        """
        self._ensure_open()
        with self._lock:
            inputs = list(self._tables)
        if len(inputs) <= 1:
            return
        merged = self._compact_build(inputs)
        self._compact_install(inputs, merged)

    def wait_compaction(self) -> None:
        """Block until the in-flight background merge (if any) finishes.

        Re-raises any exception the compaction job died with.
        """
        future = self._compaction_future
        if future is not None:
            future.result()
            race.hb_acquire(("lsm-compact-done", id(self)))

    @property
    def table_count(self) -> int:
        """Number of live SSTables (compaction observability)."""
        return len(self._tables)

    # ------------------------------------------------------------ internals

    def _maybe_flush(self) -> None:
        if self._memtable.byte_size >= self.flush_bytes:
            self.flush()

    def _maybe_compact(self) -> None:
        if len(self._tables) <= self.compaction_threshold:
            return
        if not self.background_compaction:
            self.compact()
            return
        future = self._compaction_future
        if future is not None and not future.done():
            return  # one merge in flight at a time
        if future is not None:
            future.result()  # surface failures from the previous job
            race.hb_acquire(("lsm-compact-done", id(self)))
        with self._lock:
            inputs = list(self._tables)
        if len(inputs) <= 1:
            return
        if self._compaction_pool is None:
            self._compaction_pool = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-lsm-compact"
            )
        race.hb_release(("lsm-compact-start", id(self)))
        self._compaction_future = self._compaction_pool.submit(
            self._compact_job, inputs
        )

    def _compact_job(self, inputs: list[SSTable]) -> None:
        race.hb_acquire(("lsm-compact-start", id(self)))
        with maybe_span(self.tracer, "lsm.compact_bg") as span:
            merged = self._compact_build(inputs)
            self._compact_install(inputs, merged)
            span.set(inputs=len(inputs), entries=merged.entry_count)
        race.hb_release(("lsm-compact-done", id(self)))

    def _compact_build(self, inputs: list[SSTable]) -> SSTable:
        """Write (and fsync) the merged table; reads are untouched.

        The merged table covers the *oldest prefix* of the table stack,
        so dropping tombstones is safe: nothing older remains to shadow.
        It is not yet live — :meth:`_compact_install` publishes it.
        """
        with self._lock:
            table_id = self._next_table_id
            self._next_table_id += 1
        survivors = [
            (key, value)
            for key, value in _merge_newest_wins([t.items() for t in inputs])
            if value is not None
        ]
        path = self._table_path(table_id)
        write_sstable(path, survivors)
        return SSTable(path)

    def _compact_install(self, inputs: list[SSTable], merged: SSTable) -> None:
        """Swap the manifest: merged table replaces the input prefix.

        Tables flushed while the merge ran sit after the inputs in the
        stack and stay live unchanged.  Readers that grabbed the old
        table list keep working — table bodies are memory-resident, so
        unlinking the input files cannot tear an in-flight read.
        """
        with self._lock:
            race.lock_acquired(("lsm-tables", id(self)))
            # Relaxed publication: one attribute store of a fresh list;
            # lock-free readers (_table_lookup) see old or new, never a
            # torn stack.  The lock orders it against flush()'s append.
            race.trace_write(("lsm", id(self), "tables"), relaxed=True)
            self._tables = [merged] + self._tables[len(inputs):]
            self._write_manifest()
            race.lock_released(("lsm-tables", id(self)))
        for table in inputs:
            table.path.unlink(missing_ok=True)

    def _table_path(self, table_id: int) -> Path:
        return self.directory / f"table-{table_id:08d}.sst"

    def _manifest_path(self) -> Path:
        return self.directory / MANIFEST_NAME

    def _write_manifest(self) -> None:
        """Atomically persist the live table list (tmp + fsync + rename)."""
        payload = "".join(f"{table.path.name}\n" for table in self._tables)
        tmp = self._manifest_path().with_suffix(".tmp")
        with open(tmp, "wb") as out:
            out.write(payload.encode("ascii"))
            out.flush()
            os.fsync(out.fileno())
        tmp.replace(self._manifest_path())
        _fsync_dir(self.directory)

    def _load_tables(self) -> None:
        manifest = self._manifest_path()
        if manifest.exists():
            names = [line for line in manifest.read_text().splitlines() if line]
            for name in names:
                path = self.directory / name
                try:
                    self._tables.append(SSTable(path))
                except OSError as exc:
                    raise CorruptionError(
                        f"manifest names missing table {path.name}"
                    ) from exc
                self._note_table_id(path)
            # Orphans: tables written but never installed in the manifest
            # (a crash mid-flush or mid-compaction).  Their ids stay
            # retired so a fresh table can never collide with stale data.
            listed = set(names)
            for path in sorted(self.directory.glob("table-*.sst")):
                if path.name not in listed:
                    self._note_table_id(path)
                    path.unlink(missing_ok=True)
            return
        # Legacy directory (pre-manifest): adopt by file-name order.
        for path in sorted(self.directory.glob("table-*.sst")):
            self._tables.append(SSTable(path))
            self._note_table_id(path)
        if self._tables:
            self._write_manifest()

    def _note_table_id(self, path: Path) -> None:
        table_id = int(path.stem.split("-")[1])
        self._next_table_id = max(self._next_table_id, table_id + 1)

    def _recover(self) -> None:
        for key, value in replay(self.directory / "wal.log"):
            if value is None:
                self._memtable.delete(key)
            else:
                self._memtable.put(key, value)

    def _merged_items(self) -> Iterator[tuple[bytes, bytes | None]]:
        """Merge memtable and tables; newest opinion per key wins."""
        sources: list[Iterator[tuple[bytes, bytes | None]]] = [
            table.items() for table in self._tables
        ]
        sources.append(self._memtable.items())
        yield from _merge_newest_wins(sources)

    def _ensure_open(self) -> None:
        if self._closed:
            raise StorageError("store is closed")


def _decorate(
    source: Iterator[tuple[bytes, bytes | None]], priority: int
) -> Iterator[tuple[bytes, int, bytes | None]]:
    """Tag entries with a merge priority (early binding of ``priority``)."""
    for key, value in source:
        yield key, priority, value


def _merge_newest_wins(
    sources: list[Iterator[tuple[bytes, bytes | None]]],
) -> Iterator[tuple[bytes, bytes | None]]:
    """Heap-merge ordered sources; on duplicate keys the last source wins.

    Sources are ordered oldest-first, so the decorated priority (negated
    index) makes the newest source's entry sort first for equal keys.
    """
    decorated = [_decorate(source, -index) for index, source in enumerate(sources)]
    last_key: bytes | None = None
    for key, _, value in heapq.merge(*decorated):
        if key == last_key:
            continue
        last_key = key
        yield key, value
