"""Unit tests for the read/write logging storage accessor."""

from __future__ import annotations

from repro.vm import LoggedStorage


class TestLoggedStorage:
    def test_reads_logged_with_values(self):
        storage = LoggedStorage(lambda a: {"x": 7}.get(a, 0))
        assert storage.load("x") == 7
        assert storage.rwset().reads == {"x": 7}

    def test_repeated_reads_logged_once(self):
        calls = []

        def read(addr):
            calls.append(addr)
            return 1

        storage = LoggedStorage(read)
        storage.load("x")
        storage.load("x")
        assert calls == ["x"]
        assert len(storage.rwset().reads) == 1

    def test_writes_buffered_not_applied(self):
        backing = {"x": 1}
        storage = LoggedStorage(backing.get)
        storage.store("x", 99)
        assert backing["x"] == 1
        assert storage.rwset().writes == {"x": 99}

    def test_read_own_write_not_logged_as_read(self):
        storage = LoggedStorage(lambda a: 0)
        storage.store("x", 5)
        assert storage.load("x") == 5
        assert storage.rwset().reads == {}

    def test_read_then_write_keeps_read_logged(self):
        storage = LoggedStorage(lambda a: 3)
        storage.load("x")
        storage.store("x", 4)
        rwset = storage.rwset()
        assert rwset.reads == {"x": 3}
        assert rwset.writes == {"x": 4}

    def test_discard_clears_writes_keeps_reads(self):
        storage = LoggedStorage(lambda a: 1)
        storage.load("r")
        storage.store("w", 2)
        storage.discard()
        rwset = storage.rwset()
        assert rwset.writes == {}
        assert rwset.reads == {"r": 1}

    def test_counts(self):
        storage = LoggedStorage(lambda a: 0)
        storage.load("a")
        storage.load("b")
        storage.store("c", 1)
        rwset = storage.rwset()
        assert len(rwset.reads) == 2
        assert len(rwset.writes) == 1
