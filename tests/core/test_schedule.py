"""Unit tests for commit schedules."""

from __future__ import annotations

from repro.core import schedule_from_sequences, serial_schedule


class TestScheduleFromSequences:
    def test_groups_by_sequence_ascending(self):
        schedule = schedule_from_sequences({1: 2, 2: 1, 3: 2})
        assert [g.sequence for g in schedule.groups] == [1, 2]
        assert schedule.groups[0].txids == (2,)
        assert schedule.groups[1].txids == (1, 3)

    def test_committed_respects_group_order(self):
        schedule = schedule_from_sequences({5: 3, 1: 1, 3: 3, 2: 2})
        assert schedule.committed == (1, 2, 3, 5)

    def test_aborted_excluded_from_groups(self):
        schedule = schedule_from_sequences({1: 1, 2: 1}, aborted={2})
        assert schedule.committed == (1,)
        assert schedule.aborted == (2,)

    def test_abort_rate(self):
        schedule = schedule_from_sequences({1: 1, 2: 2, 3: 3}, aborted={9})
        assert schedule.abort_rate == 0.25

    def test_abort_rate_empty(self):
        assert schedule_from_sequences({}).abort_rate == 0.0

    def test_reordered_excludes_aborted(self):
        schedule = schedule_from_sequences({1: 1}, aborted={2}, reordered={1, 2})
        assert schedule.reordered == (1,)

    def test_group_statistics(self):
        schedule = schedule_from_sequences({1: 1, 2: 1, 3: 1, 4: 2})
        assert max(len(group) for group in schedule.groups) == 3
        assert schedule.mean_group_size == 2.0
        assert schedule.committed_count == 4
        assert schedule.total_count == 4

    def test_sequences_roundtrip(self):
        source = {1: 4, 2: 4, 3: 9}
        assert schedule_from_sequences(source).sequences() == source


class TestSerialSchedule:
    def test_one_transaction_per_group(self):
        schedule = serial_schedule([3, 1, 2])
        assert [g.txids for g in schedule.groups] == [(3,), (1,), (2,)]
        assert schedule.committed == (3, 1, 2)
        assert max(len(group) for group in schedule.groups) == 1

    def test_aborted_filtered(self):
        schedule = serial_schedule([1, 2, 3], aborted=[2])
        assert schedule.committed == (1, 3)
        assert schedule.aborted == (2,)

    def test_empty(self):
        schedule = serial_schedule([])
        assert schedule.groups == ()
        assert schedule.mean_group_size == 0.0
