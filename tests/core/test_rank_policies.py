"""Tests for the configurable rank-division policies."""

from __future__ import annotations

from repro.analysis.certify import certify_epoch
from repro.core import NezhaConfig, NezhaScheduler, RankPolicy
from repro.txn import make_transaction
from repro.workload import SmallBankConfig, SmallBankWorkload, flatten_blocks

from tests.reference import build_acg, divide_ranks


def cycle_heavy_batch():
    """A batch whose address graph is one big cycle plus chords."""
    txns = []
    addresses = [f"a{i}" for i in range(5)]
    txid = 1
    for i in range(5):
        txns.append(
            make_transaction(
                txid, reads=[addresses[(i + 1) % 5]], writes=[addresses[i]]
            )
        )
        txid += 1
    # Chords raise some out-degrees.
    txns.append(make_transaction(txid, reads=["a2", "a3"], writes=["a0"]))
    return txns


class TestPolicies:
    def test_default_is_max_out_degree(self):
        assert NezhaConfig().rank_policy is RankPolicy.MAX_OUT_DEGREE

    def test_policies_diverge_on_cycles(self):
        acg = build_acg(cycle_heavy_batch())
        orders = {
            policy: tuple(divide_ranks(acg, policy=policy)) for policy in RankPolicy
        }
        # max-out-degree starts from the vertex with the most dependencies.
        assert orders[RankPolicy.MAX_OUT_DEGREE][0] == "a0"
        # All policies emit every address exactly once.
        for order in orders.values():
            assert sorted(order) == sorted(acg.addresses)

    def test_acyclic_graphs_identical_across_policies(self):
        txns = [
            make_transaction(1, reads=["b"], writes=["a"]),
            make_transaction(2, reads=["c"], writes=["b"]),
        ]
        acg = build_acg(txns)
        orders = {tuple(divide_ranks(acg, policy=policy)) for policy in RankPolicy}
        assert len(orders) == 1  # no cycles: policies never consulted

    def test_every_policy_yields_valid_schedules(self):
        workload = SmallBankWorkload(SmallBankConfig(skew=1.0, seed=42))
        txns = flatten_blocks(workload.generate_blocks(2, 60))
        for policy in RankPolicy:
            result = NezhaScheduler(NezhaConfig(rank_policy=policy)).schedule(txns)
            certificate = certify_epoch({t.txid: t.rwset for t in txns}, result.schedule)
            assert certificate.ok, f"{policy}: {certificate.summary()}"

    def test_policies_deterministic(self):
        acg = build_acg(cycle_heavy_batch())
        for policy in RankPolicy:
            assert divide_ranks(acg, policy=policy) == divide_ranks(acg, policy=policy)

    def test_unit_count_policy_prefers_busy_addresses(self):
        # a0 and a1 form a symmetric cycle but a1 has more units.
        txns = [
            make_transaction(1, reads=["a1"], writes=["a0"]),
            make_transaction(2, reads=["a0"], writes=["a1"]),
            make_transaction(3, reads=["a1"]),
            make_transaction(4, reads=["a1"]),
        ]
        acg = build_acg(txns)
        order = divide_ranks(acg, policy=RankPolicy.MAX_UNIT_COUNT)
        assert order[0] == "a1"
