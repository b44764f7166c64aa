"""Unit tests for the safety-validation pass and invariant checker."""

from __future__ import annotations

from repro.core import check_invariants
from repro.txn import make_transaction

from tests.reference import SortState, build_acg, validate_sort


def make_state(sequences, aborted=()):
    state = SortState()
    state.sequences.update(sequences)
    state.aborted.update(aborted)
    return state


class TestValidateSort:
    def test_clean_state_unmodified(self):
        txns = [
            make_transaction(1, reads=["x"]),
            make_transaction(2, writes=["x"]),
        ]
        acg = build_acg(txns)
        state = make_state({1: 1, 2: 2})
        assert validate_sort(acg, state) == set()
        assert state.sequences == {1: 1, 2: 2}

    def test_writer_at_or_below_reader_aborted(self):
        txns = [
            make_transaction(1, reads=["x"]),
            make_transaction(2, writes=["x"]),
        ]
        acg = build_acg(txns)
        state = make_state({1: 5, 2: 5})
        assert validate_sort(acg, state) == {2}
        assert state.aborted == {2}

    def test_duplicate_write_numbers_abort_higher_id(self):
        txns = [
            make_transaction(1, writes=["x"]),
            make_transaction(2, writes=["x"]),
        ]
        acg = build_acg(txns)
        state = make_state({1: 3, 2: 3})
        assert validate_sort(acg, state) == {2}

    def test_self_read_write_not_a_violation(self):
        txns = [make_transaction(1, reads=["x"], writes=["x"])]
        acg = build_acg(txns)
        state = make_state({1: 1})
        assert validate_sort(acg, state) == set()

    def test_writer_reading_own_address_checked_against_other_readers(self):
        # T2 reads and writes x at 4; T1 also reads x at 5 -> T2 violates.
        txns = [
            make_transaction(1, reads=["x"]),
            make_transaction(2, reads=["x"], writes=["x"]),
        ]
        acg = build_acg(txns)
        state = make_state({1: 5, 2: 4})
        assert validate_sort(acg, state) == {2}

    def test_unassigned_live_writer_flagged(self):
        txns = [make_transaction(1, writes=["x"])]
        acg = build_acg(txns)
        state = make_state({})
        assert validate_sort(acg, state) == {1}

    def test_cascading_violations_converge(self):
        # T3's abort is needed only after T2 is gone?  Construct: reader T1
        # at 5 invalidates writers T2 (5) and T3 (4) in a single fixpoint.
        txns = [
            make_transaction(1, reads=["x"]),
            make_transaction(2, writes=["x"]),
            make_transaction(3, writes=["x"]),
        ]
        acg = build_acg(txns)
        state = make_state({1: 5, 2: 5, 3: 4})
        assert validate_sort(acg, state) == {2, 3}


class TestCheckInvariants:
    def test_valid_schedule_passes(self):
        txns = [
            make_transaction(1, reads=["x"]),
            make_transaction(2, writes=["x"]),
        ]
        assert check_invariants(txns, {1: 1, 2: 2}) == []

    def test_read_after_write_detected(self):
        txns = [
            make_transaction(1, reads=["x"]),
            make_transaction(2, writes=["x"]),
        ]
        problems = check_invariants(txns, {1: 2, 2: 2})
        assert len(problems) == 1
        assert "T2" in problems[0]

    def test_duplicate_writes_detected(self):
        txns = [
            make_transaction(1, writes=["x"]),
            make_transaction(2, writes=["x"]),
        ]
        problems = check_invariants(txns, {1: 1, 2: 1})
        assert any("share sequence" in p for p in problems)

    def test_missing_sequence_detected(self):
        txns = [make_transaction(1, writes=["x"])]
        problems = check_invariants(txns, {})
        assert any("no sequence" in p for p in problems)

    def test_aborted_transactions_excluded(self):
        txns = [
            make_transaction(1, reads=["x"]),
            make_transaction(2, writes=["x"]),
        ]
        assert check_invariants(txns, {1: 2}, aborted={2}) == []

    def test_accepts_mapping_input(self):
        txns = {1: make_transaction(1, reads=["x"]), 2: make_transaction(2, writes=["x"])}
        assert check_invariants(txns, {1: 1, 2: 2}) == []
