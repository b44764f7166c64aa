"""Unit tests for the transaction model and its binary codec."""

from __future__ import annotations

import pytest

from repro.errors import TransactionError
from repro.txn import (
    RWSet,
    SimulationBatch,
    SimulationResult,
    SimulationStatus,
    Transaction,
    batch_from_transactions,
    decode_transaction,
    encode_transaction,
    make_transaction,
)


class TestRWSet:
    def test_address_properties(self):
        rwset = RWSet(reads={"a": 1}, writes={"b": 2})
        assert rwset.read_addresses == {"a"}
        assert rwset.write_addresses == {"b"}
        assert rwset.addresses == {"a", "b"}

    def test_conflicts(self):
        ww = RWSet(writes={"x": 1})
        assert ww.conflicts_with(RWSet(writes={"x": 2}))
        assert ww.conflicts_with(RWSet(reads={"x": 0}))
        assert RWSet(reads={"x": 0}).conflicts_with(ww)
        assert not RWSet(reads={"x": 0}).conflicts_with(RWSet(reads={"x": 0}))

    def test_merge_later_writes_win(self):
        merged = RWSet(writes={"x": 1}).merged_with(RWSet(writes={"x": 2}))
        assert merged.writes == {"x": 2}

    def test_iter_units_reads_first(self):
        rwset = RWSet(reads={"r": 0}, writes={"w": 1})
        assert list(rwset.iter_units()) == [("r", "R"), ("w", "W")]

    def test_non_mapping_rejected(self):
        with pytest.raises(TransactionError):
            RWSet(reads=["a"], writes={})


class TestTransaction:
    def test_negative_txid_rejected(self):
        with pytest.raises(TransactionError):
            make_transaction(-1)

    def test_is_read_only(self):
        assert make_transaction(1, reads=["a"]).is_read_only
        assert not make_transaction(1, writes=["a"]).is_read_only

    def test_with_rwset_preserves_identity(self):
        txn = Transaction(txid=5, sender="user:1", contract="c", function="f", args=(1,))
        updated = txn.with_rwset(RWSet(reads={"x": 0}))
        assert updated.txid == 5
        assert updated.contract == "c"
        assert updated.read_set == {"x"}

    def test_digest_distinguishes_rwsets(self):
        a = make_transaction(1, writes=["x"])
        b = make_transaction(1, writes=["y"])
        assert a.digest() != b.digest()

    def test_digest_stable(self):
        txn = make_transaction(3, reads=["a"], writes=["b"])
        assert txn.digest() == make_transaction(3, reads=["a"], writes=["b"]).digest()

    def test_ordering_by_txid(self):
        assert make_transaction(1) < make_transaction(2)


class TestSimulationBatch:
    def test_successful_filtering(self):
        good = SimulationResult(
            transaction=make_transaction(1), rwset=RWSet(writes={"x": 1})
        )
        bad = SimulationResult(
            transaction=make_transaction(2),
            rwset=RWSet(),
            status=SimulationStatus.REVERTED,
        )
        batch = SimulationBatch(results=(good, bad))
        assert [r.txid for r in batch.successful()] == [1]
        assert batch.failed_count == 1
        assert batch.write_values() == {1: {"x": 1}}
        assert batch.delta_values() == {1: {}}
        assert batch.successful() is batch.successful(), "filtered once per batch"
        assert [t.txid for t in batch.transactions()] == [1]

    def test_batch_from_transactions_sorted(self):
        txns = [make_transaction(3), make_transaction(1)]
        batch = batch_from_transactions(txns)
        assert [r.txid for r in batch.results] == [1, 3]


class TestCodec:
    def roundtrip(self, txn):
        return decode_transaction(encode_transaction(txn))

    def test_minimal_transaction(self):
        txn = make_transaction(0)
        assert self.roundtrip(txn) == txn

    def test_contract_transaction(self):
        txn = Transaction(
            txid=42,
            sender="user:000007",
            contract="smallbank",
            function="sendPayment",
            args=(1, 2, 300),
        )
        decoded = self.roundtrip(txn)
        assert decoded == txn
        assert decoded.contract == "smallbank"
        assert decoded.args == (1, 2, 300)

    def test_rwset_values_preserved(self):
        txn = make_transaction(
            7, reads={"a": 10, "b": None}, writes={"c": 0, "d": 999}
        )
        decoded = self.roundtrip(txn)
        assert dict(decoded.rwset.reads) == {"a": 10, "b": None}
        assert dict(decoded.rwset.writes) == {"c": 0, "d": 999}

    def test_string_args(self):
        txn = Transaction(txid=1, function="f", args=("hello", 5, None))
        assert self.roundtrip(txn).args == ("hello", 5, None)

    def test_no_contract_distinct_from_empty_name(self):
        anonymous = Transaction(txid=1)
        named = Transaction(txid=1, contract="")
        assert self.roundtrip(anonymous).contract is None
        assert self.roundtrip(named).contract == ""

    def test_digest_preserved_through_codec(self):
        txn = make_transaction(9, reads=["r"], writes=["w"])
        assert self.roundtrip(txn).digest() == txn.digest()

    def test_garbage_rejected(self):
        with pytest.raises(Exception):
            decode_transaction(b"\xde\xad\xbe\xef")

    def test_codec_property(self):
        from hypothesis import given, settings, strategies as st

        addresses = st.text(min_size=1, max_size=8)
        values = st.one_of(st.none(), st.integers(min_value=0, max_value=2**64))

        @settings(max_examples=80, deadline=None)
        @given(
            txid=st.integers(min_value=0, max_value=2**32),
            reads=st.dictionaries(addresses, values, max_size=4),
            writes=st.dictionaries(addresses, values, max_size=4),
            args=st.lists(
                st.one_of(st.integers(min_value=0, max_value=2**32), st.text(max_size=6)),
                max_size=4,
            ),
        )
        def roundtrip_holds(txid, reads, writes, args):
            txn = Transaction(
                txid=txid,
                rwset=RWSet(reads=reads, writes=writes),
                args=tuple(args),
            )
            assert decode_transaction(encode_transaction(txn)) == txn
            decoded = decode_transaction(encode_transaction(txn))
            assert dict(decoded.rwset.reads) == dict(reads)
            assert dict(decoded.rwset.writes) == dict(writes)
            assert decoded.args == tuple(args)

        roundtrip_holds()
