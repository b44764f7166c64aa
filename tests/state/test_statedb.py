"""Unit tests for accounts and the StateDB."""

from __future__ import annotations

import pytest

from repro.errors import StateError
from repro.state import Account, StateDB, decode_int, encode_int
from repro.storage import LSMStore, MemStore


class TestIntCodec:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 255, 256, 10_000, 2**63])
    def test_roundtrip(self, value):
        assert decode_int(encode_int(value)) == value

    def test_zero_is_nonempty(self):
        assert encode_int(0) == b"\x00"

    def test_negative_rejected(self):
        with pytest.raises(StateError):
            encode_int(-1)

    def test_empty_decode_rejected(self):
        with pytest.raises(StateError):
            decode_int(b"")


class TestAccount:
    def test_roundtrip(self):
        account = Account(balance=12_345, nonce=7)
        assert Account.decode(account.encode()) == account

    def test_negative_balance_rejected(self):
        with pytest.raises(StateError):
            Account(balance=-1)

    def test_nonce_bump(self):
        assert Account().bumped().nonce == 1


class TestStateDB:
    def test_default_zero(self):
        db = StateDB()
        assert db.get("never-written") == 0

    def test_set_get_before_commit(self):
        db = StateDB()
        db.set("a", 5)
        assert db.get("a") == 5
        assert db.dirty_count == 1

    def test_commit_persists_and_changes_root(self):
        db = StateDB()
        empty_root = db.root
        db.set("a", 5)
        root = db.commit()
        assert root != empty_root
        assert db.get("a") == 5
        assert db.dirty_count == 0

    def test_negative_value_rejected(self):
        db = StateDB()
        with pytest.raises(StateError):
            db.set("a", -5)

    def test_snapshot_pins_history(self):
        db = StateDB()
        root1 = db.seed({"a": 1})
        db.set("a", 2)
        db.commit()
        assert db.snapshot(root1).get("a") == 1
        assert db.snapshot().get("a") == 2

    def test_snapshot_does_not_see_dirty(self):
        db = StateDB()
        db.seed({"a": 1})
        snap = db.snapshot()
        db.set("a", 2)
        assert snap.get("a") == 1

    def test_deterministic_roots(self):
        first = StateDB()
        first.seed({"b": 2, "a": 1})
        second = StateDB()
        second.set("a", 1)
        second.commit()
        second.set("b", 2)
        second.commit()
        assert first.root == second.root

    def test_items_enumerates_committed(self):
        db = StateDB()
        db.seed({"x": 1, "y": 2})
        db.set("z", 3)  # dirty, excluded
        assert dict(db.items()) == {"x": 1, "y": 2}

    def test_backed_by_memstore(self):
        store = MemStore()
        db = StateDB(store=store)
        root = db.seed({"a": 42})
        # A second StateDB over the same store and root sees the data.
        other = StateDB(store=store, root=root)
        assert other.get("a") == 42

    def test_backed_by_lsm_survives_reopen(self, tmp_path):
        store = LSMStore(tmp_path / "db")
        db = StateDB(store=store)
        root = db.seed({"persist": 7})
        store.close()
        reopened = LSMStore(tmp_path / "db")
        db2 = StateDB(store=reopened, root=root)
        assert db2.get("persist") == 7
        reopened.close()

    def test_snapshot_items(self):
        db = StateDB()
        db.seed({"a": 1, "b": 2})
        assert dict(db.snapshot().items()) == {"a": 1, "b": 2}
