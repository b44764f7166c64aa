"""Unit tests for the token workload and its execution alignment."""

from __future__ import annotations

import pytest

from repro.errors import WorkloadError
from repro.node import ConcurrentExecutor
from repro.vm.contracts import register_token
from repro.vm.native import ContractRegistry
from repro.workload import TokenConfig, TokenWorkload, initial_token_state


@pytest.fixture
def registry():
    reg = ContractRegistry()
    register_token(reg)
    return reg


class TestGeneration:
    def test_consecutive_ids(self):
        workload = TokenWorkload(TokenConfig(seed=1))
        txns = workload.generate(20)
        assert [t.txid for t in txns] == list(range(20))

    def test_reproducible(self):
        a = TokenWorkload(TokenConfig(seed=5, skew=0.7)).generate(50)
        b = TokenWorkload(TokenConfig(seed=5, skew=0.7)).generate(50)
        assert [(t.function, t.args, t.sender) for t in a] == [
            (t.function, t.args, t.sender) for t in b
        ]

    def test_all_op_types_appear(self):
        functions = {t.function for t in TokenWorkload(TokenConfig(seed=2)).generate(500)}
        assert functions == {
            "transfer",
            "approve",
            "transferFrom",
            "mint",
            "balanceOf",
        }

    def test_tiny_population_rejected(self):
        with pytest.raises(WorkloadError):
            TokenConfig(holder_count=1)

    def test_initial_state_includes_supply(self):
        state = initial_token_state(TokenConfig(holder_count=5))
        assert state["sup:total"] == sum(
            v for k, v in state.items() if k.startswith("bal:")
        )


class TestExecutionAlignment:
    def test_analytic_rwsets_match_execution(self, registry):
        """Successful executions touch exactly the declared addresses."""
        config = TokenConfig(holder_count=50, skew=0.3, seed=4)
        state = initial_token_state(config)
        executor = ConcurrentExecutor(registry=registry)
        txns = TokenWorkload(config).generate(200)
        batch = executor.execute_batch(txns, lambda a: state.get(a, 0))
        checked = 0
        for result in batch.successful():
            declared = result.transaction.rwset
            observed = result.rwset
            assert observed.read_addresses <= declared.read_addresses
            assert observed.write_addresses == declared.write_addresses, (
                result.transaction.function,
                result.transaction.args,
            )
            checked += 1
        assert checked > 150

    def test_vm_and_native_agree_on_workload(self, registry):
        config = TokenConfig(holder_count=30, skew=0.5, seed=6)
        state = initial_token_state(config)
        txns = TokenWorkload(config).generate(100)
        native = ConcurrentExecutor(registry=registry, use_vm=False)
        vm = ConcurrentExecutor(registry=registry, use_vm=True)
        batch_a = native.execute_batch(txns, lambda a: state.get(a, 0))
        batch_b = vm.execute_batch(txns, lambda a: state.get(a, 0))
        for a, b in zip(batch_a.results, batch_b.results):
            assert a.ok == b.ok
            assert dict(a.rwset.writes) == dict(b.rwset.writes)

    def test_pipeline_end_to_end(self, registry):
        """Token transactions flow through the Nezha pipeline correctly."""
        from repro.analysis.certify import certify_epoch
        from repro.core import NezhaScheduler
        from repro.workload import flatten_blocks

        config = TokenConfig(holder_count=40, skew=0.8, seed=8)
        state = initial_token_state(config)
        txns = flatten_blocks(TokenWorkload(config).generate_blocks(2, 50))
        executor = ConcurrentExecutor(registry=registry)
        batch = executor.execute_batch(txns, lambda a: state.get(a, 0))
        result = NezhaScheduler().schedule(batch.transactions())
        certificate = certify_epoch(
            {t.txid: t.rwset for t in batch.transactions()}, result.schedule
        )
        assert certificate.ok, certificate.summary()
        assert result.schedule.committed_count > 0
