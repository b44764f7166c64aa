"""Unit tests for the concurrent speculative executor."""

from __future__ import annotations

import pytest

from repro.node import ConcurrentExecutor, caller_id
from repro.txn import SimulationStatus, Transaction, make_transaction
from repro.vm.contracts import default_registry


def smallbank_txn(txid, function, args, sender="user:000001", contract="smallbank"):
    return Transaction(
        txid=txid, sender=sender, contract=contract, function=function, args=args
    )


STATE = {"sav:000001": 100, "chk:000001": 100, "sav:000002": 50, "chk:000002": 50}


def read_fn(address):
    return STATE.get(address, 0)


class TestCallerId:
    def test_parses_suffix(self):
        assert caller_id("user:000042") == 42

    def test_garbage_is_zero(self):
        assert caller_id("nobody") == 0
        assert caller_id("") == 0


class TestPassthrough:
    def test_synthetic_rwset_resolved_against_snapshot(self):
        executor = ConcurrentExecutor()
        txn = make_transaction(1, reads=["sav:000001"], writes={"chk:000001": 7})
        batch = executor.execute_batch([txn], read_fn)
        result = batch.results[0]
        assert result.ok
        assert result.rwset.reads == {"sav:000001": 100}
        assert result.rwset.writes == {"chk:000001": 7}

    def test_batch_sorted_by_txid(self):
        executor = ConcurrentExecutor()
        txns = [make_transaction(i, writes=[f"w{i}"]) for i in (3, 1, 2)]
        batch = executor.execute_batch(txns, read_fn)
        assert [r.txid for r in batch.results] == [1, 2, 3]
        # ``SimulationBatch`` relies on that order instead of re-sorting.
        assert [t.txid for t in batch.transactions()] == [1, 2, 3]


class TestContractExecution:
    def test_native_execution(self):
        executor = ConcurrentExecutor(registry=default_registry())
        txn = smallbank_txn(1, "updateSavings", (1, 10))
        batch = executor.execute_batch([txn], read_fn)
        assert batch.results[0].rwset.writes == {"sav:000001": 110}

    def test_vm_execution_matches_native(self):
        registry = default_registry()
        native = ConcurrentExecutor(registry=registry, use_vm=False)
        vm = ConcurrentExecutor(registry=registry, use_vm=True)
        txns = [
            smallbank_txn(1, "sendPayment", (1, 2, 30)),
            smallbank_txn(2, "getBalance", (2,)),
            smallbank_txn(3, "almagate", (2, 1)),
        ]
        native_batch = native.execute_batch(txns, read_fn)
        vm_batch = vm.execute_batch(txns, read_fn)
        for n, v in zip(native_batch.results, vm_batch.results):
            assert n.ok == v.ok
            assert dict(n.rwset.writes) == dict(v.rwset.writes)

    def test_reverted_excluded_from_schedulable(self):
        executor = ConcurrentExecutor(registry=default_registry())
        txns = [
            smallbank_txn(1, "sendPayment", (1, 2, 1_000_000)),  # overdraft
            smallbank_txn(2, "updateSavings", (1, 5)),
        ]
        batch = executor.execute_batch(txns, read_fn)
        assert batch.failed_count == 1
        assert [t.txid for t in batch.transactions()] == [2]

    def test_write_values_exposed_for_commit(self):
        executor = ConcurrentExecutor(registry=default_registry())
        txn = smallbank_txn(4, "updateSavings", (2, 50))
        batch = executor.execute_batch([txn], read_fn)
        assert batch.write_values() == {4: {"sav:000002": 100}}


class TestMalformedCalls:
    """An untrusted call the node cannot run reverts; it never ends the epoch."""

    @staticmethod
    def statuses(args, function="updateSavings", contract="smallbank"):
        registry = default_registry()
        batch = [
            smallbank_txn(1, function, args, contract=contract),
            smallbank_txn(2, "getBalance", (2,)),
        ]
        out = []
        for use_vm in (True, False):
            executor = ConcurrentExecutor(registry=registry, use_vm=use_vm)
            results = executor.execute_batch(batch, read_fn).results
            assert results[1].ok, "the well-formed neighbour still executes"
            out.append(results[0])
        return out

    @pytest.mark.parametrize("args", [(), (1,), ("abc", 1), (1, None)])
    def test_short_or_non_integer_arguments_revert_on_both_paths(self, args):
        vm, native = self.statuses(args)
        assert vm.status is native.status is SimulationStatus.REVERTED
        assert vm.error and native.error
        assert not vm.rwset.writes and not native.rwset.writes

    @pytest.mark.parametrize(
        "target",
        [{"contract": "nosuch"}, {"function": "nosuch"}],
        ids=["contract", "function"],
    )
    def test_unknown_contract_or_function_reverts_on_both_paths(self, target):
        vm, native = self.statuses((1, 10), **target)
        assert vm.status is native.status is SimulationStatus.REVERTED
        assert "nosuch" in vm.error and "nosuch" in native.error
        assert not vm.rwset.reads and not native.rwset.reads
        assert not vm.rwset.writes and not native.rwset.writes

    def test_extra_arguments_are_ignored_on_both_paths(self):
        vm, native = self.statuses((1, 10, 99, 98))
        assert vm.ok and native.ok
        assert dict(vm.rwset.writes) == dict(native.rwset.writes) == {"sav:000001": 110}

    def test_numeric_strings_are_integers(self):
        vm, native = self.statuses(("1", "10"))
        assert dict(vm.rwset.writes) == dict(native.rwset.writes) == {"sav:000001": 110}

    def test_undeclared_arity_leaves_arguments_untouched(self):
        from repro.vm import LoggedStorage, NativeContract

        contract = NativeContract("adhoc", {"count": lambda storage, args, caller: len(args)})
        receipt = contract.call("count", LoggedStorage(read_fn), (1, 2, 3))
        assert receipt.success and receipt.return_value == 3
