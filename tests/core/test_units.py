"""Unit tests for the ordered per-address unit lists."""

from __future__ import annotations

from repro.core.units import AddressRWList
from repro.txn import make_transaction

from tests.reference import build_acg


class TestAddressRWList:
    def test_finalize_sorts_by_txid(self):
        txns = [make_transaction(t, reads=["a"]) for t in (5, 1, 3)]
        txns += [make_transaction(t, writes=["a"]) for t in (9, 2)]
        rw = build_acg(txns).rw("a")
        assert rw.reads == [1, 3, 5]
        assert rw.writes == [2, 9]

    def test_empty_list(self):
        rw = AddressRWList("a")
        assert len(rw) == 0
