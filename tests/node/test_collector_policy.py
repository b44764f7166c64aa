"""The node owns its process's collector policy.

Every bring-up — a bare ``FullNode``, ``repro.net.build_node`` and
``FullNode.restore`` — raises the generation-0 collection threshold to
``YOUNG_GC_THRESHOLD`` once genesis is in place.  An epoch's short-lived
CC and commit containers then no longer trigger dozens of young
collections per epoch.
"""

from __future__ import annotations

import gc

import pytest

from repro.core import NezhaScheduler
from repro.dag import EpochCoordinator, Mempool, ParallelChains, PoWParams
from repro.net import NodeSpec, build_node
from repro.node import FullNode
from repro.node.node import YOUNG_GC_THRESHOLD
from repro.state import StateDB
from repro.storage import MemStore
from repro.workload import SmallBankConfig, SmallBankWorkload

CPYTHON_DEFAULT = (700, 10, 10)
POW = PoWParams(6)
WORKLOAD = SmallBankConfig(account_count=2_000, skew=0.6, seed=3)

# Two barrier epochs of 12 x 200 transactions.  Calibrated on a 2-core
# x86 guest, CPython 3.11: at CPython's 700 the two epochs run 108-111
# young collections, at the node's threshold 1.
CHAINS, BLOCK_SIZE, EPOCHS = 12, 200, 2
YOUNG_COLLECTIONS_BOUND = 20


@pytest.fixture(autouse=True)
def default_collector():
    """Start each test at CPython's defaults, so only the bring-up under
    test can have raised generation 0; restore the process's after."""
    saved = gc.get_threshold()
    gc.set_threshold(*CPYTHON_DEFAULT)
    yield
    gc.set_threshold(*saved)


def _spec(chain_count: int = 2) -> NodeSpec:
    return NodeSpec(chain_count=chain_count, workload=WORKLOAD, pow=POW)


def _assert_policy_set() -> None:
    assert gc.get_threshold() == (YOUNG_GC_THRESHOLD, *CPYTHON_DEFAULT[1:])


def _mine_and_receive(node: FullNode, epochs: int, chains: int, block_size: int) -> int:
    """Feed ``node`` ``epochs`` freshly mined epochs; returns the young
    collections made while the node processed them (mining excluded)."""
    coordinator = EpochCoordinator(
        chains=ParallelChains(chain_count=chains, pow_params=POW),
        miners=["m0"],
        block_size=block_size,
    )
    pool = Mempool()
    pool.submit_many(SmallBankWorkload(WORKLOAD).generate(epochs * chains * block_size))
    young = 0
    for _ in range(epochs):
        blocks = coordinator.mine_epoch(pool, state_root=node.state_root)
        before = gc.get_stats()[0]["collections"]
        node.receive_epoch(blocks)
        young += gc.get_stats()[0]["collections"] - before
    return young


def test_full_node_sets_the_young_threshold():
    FullNode(
        chains=ParallelChains(chain_count=2, pow_params=POW),
        state=StateDB(),
        scheduler=NezhaScheduler(),
    )
    _assert_policy_set()


def test_build_node_sets_it_and_a_second_bring_up_keeps_it():
    build_node(_spec())
    _assert_policy_set()
    build_node(_spec()).close()
    _assert_policy_set()


def test_restore_sets_it():
    store = MemStore()
    with build_node(_spec(), store=store) as node:
        _mine_and_receive(node, epochs=1, chains=2, block_size=20)
    gc.set_threshold(*CPYTHON_DEFAULT)
    restored = FullNode.restore(store, NezhaScheduler(), chain_count=2, pow_params=POW)
    assert restored.next_epoch == 1
    _assert_policy_set()


def test_barrier_epochs_run_few_young_collections():
    with build_node(_spec(CHAINS)) as node:
        young = _mine_and_receive(node, EPOCHS, CHAINS, BLOCK_SIZE)
    assert sum(report.input_transactions for report in node.reports) == (
        EPOCHS * CHAINS * BLOCK_SIZE
    )
    assert young < YOUNG_COLLECTIONS_BOUND
