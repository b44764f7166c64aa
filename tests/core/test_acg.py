"""Unit tests for ACG construction."""

from __future__ import annotations

import pytest

from repro.errors import SchedulingError
from repro.txn import make_transaction

from tests.reference import build_acg


class TestBuildACG:
    def test_empty_batch(self):
        acg = build_acg([])
        assert acg.addresses == []
        assert len(acg.edge_multiplicity) == 0
        assert acg.txn_count == 0

    def test_single_transaction_no_edges(self):
        acg = build_acg([make_transaction(1, reads=["a"], writes=["b"])])
        assert set(acg.iter_edges()) == {("b", "a")}
        assert acg.rw("a").reads == [1]
        assert acg.rw("b").writes == [1]

    def test_duplicate_txid_rejected(self):
        txns = [
            make_transaction(1, reads=["a"], writes=[]),
            make_transaction(1, reads=["b"], writes=[]),
        ]
        with pytest.raises(SchedulingError):
            build_acg(txns)

    def test_unknown_address_lookup_raises(self):
        acg = build_acg([make_transaction(1, reads=["a"], writes=[])])
        with pytest.raises(SchedulingError):
            acg.rw("missing")

    def test_input_order_does_not_matter(self):
        txns = [
            make_transaction(3, reads=["a"], writes=["b"]),
            make_transaction(1, reads=["a"], writes=["c"]),
            make_transaction(2, reads=["b"], writes=["a"]),
        ]
        forward = build_acg(txns)
        backward = build_acg(list(reversed(txns)))
        assert forward.rw("a").reads == backward.rw("a").reads == [1, 3]
        assert forward.rw("a").writes == backward.rw("a").writes == [2]
        assert set(forward.iter_edges()) == set(backward.iter_edges())

    def test_writes_sorted_by_txid(self):
        txns = [
            make_transaction(5, writes=["x"]),
            make_transaction(2, writes=["x"]),
            make_transaction(9, writes=["x"]),
        ]
        acg = build_acg(txns)
        assert acg.rw("x").writes == [2, 5, 9]

    def test_edge_multiplicity_accumulates(self):
        txns = [
            make_transaction(1, reads=["a"], writes=["b"]),
            make_transaction(2, reads=["a"], writes=["b"]),
        ]
        acg = build_acg(txns)
        assert acg.edge_multiplicity[("b", "a")] == 2
        assert len(acg.edge_multiplicity) == 1

    def test_multi_address_transaction_builds_cross_product(self):
        txn = make_transaction(1, reads=["r1", "r2"], writes=["w1", "w2"])
        acg = build_acg([txn])
        assert set(acg.iter_edges()) == {
            ("w1", "r1"),
            ("w1", "r2"),
            ("w2", "r1"),
            ("w2", "r2"),
        }

    def test_read_only_transaction(self):
        acg = build_acg([make_transaction(1, reads=["a", "b"], writes=[])])
        assert len(acg.edge_multiplicity) == 0
        assert acg.rw("a").reads == [1]
        assert acg.rw("b").reads == [1]

    def test_write_only_transaction(self):
        acg = build_acg([make_transaction(1, reads=[], writes=["a"])])
        assert len(acg.edge_multiplicity) == 0
        assert acg.rw("a").writes == [1]


class TestAddressRWList:
    def test_len_counts_all_units(self, paper_transactions):
        acg = build_acg(paper_transactions)
        assert len(acg.rw("A4")) == 4
