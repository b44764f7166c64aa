"""Unit tests for the commitment phase."""

from __future__ import annotations

import pytest

from repro.core import CommitGroup, Schedule
from repro.errors import ExecutionError
from repro.node import Committer, SerialExecutorCommitter
from repro.state import StateDB
from repro.txn import make_transaction
from repro.vm.contracts import default_registry


class TestCommitter:
    def test_applies_groups_in_order(self):
        state = StateDB()
        schedule = Schedule(
            groups=(CommitGroup(1, (1,)), CommitGroup(2, (2,)))
        )
        # T2 overwrites T1's slot: group order decides the final value.
        write_values = {1: {"x": 10}, 2: {"x": 20}}
        report = Committer().commit(schedule, write_values, state)
        assert state.get("x") == 20
        assert report.committed_count == 2
        assert report.group_count == 2
        assert report.state_root == state.root

    def test_missing_write_values_rejected(self):
        state = StateDB()
        schedule = Schedule(groups=(CommitGroup(1, (7,)),))
        with pytest.raises(ExecutionError):
            Committer().commit(schedule, {}, state)

    def test_empty_schedule_commits_nothing(self):
        state = StateDB()
        before = state.root
        report = Committer().commit(Schedule(), {}, state)
        assert report.committed_count == 0
        assert report.state_root == before

    def test_values_coerced_to_int(self):
        state = StateDB()
        schedule = Schedule(groups=(CommitGroup(1, (1,)),))
        Committer().commit(schedule, {1: {"x": 42}}, state)
        assert state.get("x") == 42


class TestSerialExecutorCommitter:
    def test_raw_transactions_apply_writes(self):
        state = StateDB()
        committer = SerialExecutorCommitter()
        txns = [
            make_transaction(1, writes={"a": 5}),
            make_transaction(2, writes={"a": 9, "b": 1}),
        ]
        report = committer.run(txns, state)
        assert report.committed_count == 2
        assert state.get("a") == 9
        assert state.get("b") == 1

    def test_contract_transactions_see_prior_writes(self):
        from repro.txn import Transaction

        state = StateDB()
        state.seed({"sav:000001": 100, "chk:000001": 100})
        committer = SerialExecutorCommitter(registry=default_registry())
        txns = [
            Transaction(txid=1, contract="smallbank", function="updateSavings", args=(1, 50)),
            Transaction(txid=2, contract="smallbank", function="updateSavings", args=(1, 50)),
        ]
        committer.run(txns, state)
        # Second deposit observed the first: 100 + 50 + 50.
        assert state.get("sav:000001") == 200

    def test_reverted_transactions_skipped(self):
        from repro.txn import Transaction

        state = StateDB()
        state.seed({"chk:000001": 10, "chk:000002": 10})
        committer = SerialExecutorCommitter(registry=default_registry())
        txns = [
            Transaction(txid=1, contract="smallbank", function="sendPayment", args=(1, 2, 999)),
        ]
        report = committer.run(txns, state)
        assert report.committed_count == 0
        assert state.get("chk:000001") == 10
