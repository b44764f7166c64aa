"""One clock: every latency an epoch report carries is a span's duration.

``EpochReport.phases`` (Table IV's split) and ``EpochReport.scheme_phases``
(Figure 10's sub-phases) are not timed beside the tracer: they are read
off the spans the tracer records, so on a traced node each field equals
the named span's ``duration`` (or the sum the ``PhaseLatencies``
docstring names) exactly, on the barrier and the streaming path alike.
"""

from __future__ import annotations

import pytest

from repro.baselines import CGScheduler, OCCScheduler, PCCScheduler
from repro.core import NezhaScheduler
from repro.dag import EpochCoordinator, Mempool, ParallelChains, PoWParams
from repro.node import FullNode, PipelineConfig
from repro.obs import Tracer
from repro.state import StateDB
from repro.vm.contracts import default_registry
from repro.workload import SmallBankConfig, SmallBankWorkload, initial_state

CONFIG = SmallBankConfig(account_count=200, skew=0.7, seed=41)
CHAINS = 3
BLOCK_SIZE = 25
EPOCHS = 3


def traced_epochs(scheduler, streaming: bool = False):
    """Run EPOCHS live epochs on a traced node; yield ``(report, spans)``
    with the spans recorded while that epoch was processed, by name."""
    state = StateDB()
    state.seed(initial_state(CONFIG))
    tracer = Tracer()
    node = FullNode(
        chains=ParallelChains(chain_count=CHAINS, pow_params=PoWParams(6)),
        state=state,
        scheduler=scheduler,
        registry=default_registry(),
        config=PipelineConfig(streaming=streaming),
        tracer=tracer,
    )
    coordinator = EpochCoordinator(
        chains=ParallelChains(chain_count=CHAINS, pow_params=PoWParams(6)),
        miners=["m0"],
        block_size=BLOCK_SIZE,
    )
    pool = Mempool()
    pool.submit_many(SmallBankWorkload(CONFIG).generate(EPOCHS * CHAINS * BLOCK_SIZE))
    with node:
        for _ in range(EPOCHS):
            blocks = coordinator.mine_epoch(pool, state_root=node.state_root)
            tracer.clear()
            report = node.receive_epoch(blocks)
            spans: dict[str, float] = {}
            for span in tracer.spans():
                assert span.name not in spans, f"{span.name} opened twice"
                spans[span.name] = span.duration
            yield report, spans
    if streaming:
        assert node.engine is not None
        assert node.engine.stats.epochs_streamed == EPOCHS


def assert_nezha_sub_phases(report, spans):
    assert report.scheme_phases == {
        "graph_construction": spans["cc.acg_build"],
        "rank_division": spans["cc.rank_division"],
        "transaction_sorting": spans["cc.sorting"],
        "validation": spans["cc.validate"],
    }


class TestBarrierPhasesAreSpans:
    @pytest.mark.parametrize(
        "factory, sub_phases",
        [
            (NezhaScheduler, None),
            (
                CGScheduler,
                {
                    "graph_construction": "cg.graph_construction",
                    "cycle_detection": "cg.cycle_detection",
                    "topological_sorting": "cg.topological_sorting",
                },
            ),
            (OCCScheduler, {"validation": "occ.validation"}),
            (PCCScheduler, {"lock_scheduling": "pcc.lock_scheduling"}),
        ],
        ids=["nezha", "cg", "occ", "pcc"],
    )
    def test_every_field_is_its_span(self, factory, sub_phases):
        for report, spans in traced_epochs(factory()):
            phases = report.phases
            assert phases.validation == spans["node.admit"]
            if factory is PCCScheduler:
                assert "pipeline.simulate" not in spans
                assert phases.execution == 0.0
            else:
                assert phases.execution == spans["pipeline.simulate"]
            assert phases.concurrency_control == spans["pipeline.concurrency_control"]
            assert phases.commitment == spans["pipeline.commit"]
            if sub_phases is None:
                assert_nezha_sub_phases(report, spans)
            else:
                assert report.scheme_phases == {
                    key: spans[name] for key, name in sub_phases.items()
                }


class TestStreamingPhasesAreSpans:
    def test_every_field_is_its_span(self):
        for report, spans in traced_epochs(NezhaScheduler(), streaming=True):
            phases = report.phases
            assert "pipeline.simulate" not in spans
            assert phases.validation == spans["node.admit"]
            assert phases.execution == (
                spans["engine.speculate"] + spans["engine.reconcile"]
            )
            assert phases.concurrency_control == (
                spans["cc.acg_build"] + spans["pipeline.concurrency_control"]
            )
            assert phases.commitment == spans["pipeline.commit"]
            assert_nezha_sub_phases(report, spans)
