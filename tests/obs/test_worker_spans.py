"""Worker-span shipping: the worker processes feed the parent's timeline."""

from __future__ import annotations

from repro.node import ConcurrentExecutor
from repro.obs import Tracer, chrome_trace, validate_chrome_trace
from repro.state import StateDB
from repro.vm.contracts import default_registry
from repro.workload import (
    SmallBankConfig,
    SmallBankWorkload,
    flatten_blocks,
    initial_state,
)

WORKLOAD_CONFIG = SmallBankConfig(account_count=200, skew=0.5, seed=11)


def traced_executor(workers: int):
    state = StateDB()
    state.seed(initial_state(WORKLOAD_CONFIG))
    tracer = Tracer()
    executor = ConcurrentExecutor(
        registry=default_registry(),
        workers=workers,
        state_provider=lambda: dict(state.items()),
        tracer=tracer,
    )
    return executor, tracer, state


def epoch_batch():
    workload = SmallBankWorkload(WORKLOAD_CONFIG)
    return flatten_blocks(workload.generate_blocks(2, 30))


class TestProcessSpans:
    def test_worker_spans_ship_back_and_merge(self):
        executor, tracer, state = traced_executor(2)
        with executor:
            batch = executor.execute_batch(epoch_batch(), state.get)
            if executor.resolved_backend != "process":
                return  # environment cannot fork/spawn: degrade is covered elsewhere
        assert batch.failed_count == 0
        worker_spans = [
            s for s in tracer.spans() if s.name == "execute.worker_chunk"
        ]
        assert len(worker_spans) == 2  # one chunk per worker
        assert {span.track for span in worker_spans} == {"worker-0", "worker-1"}
        assert sum(span.attrs["txns"] for span in worker_spans) == len(epoch_batch())
        for span in worker_spans:
            assert span.end >= span.start

    def test_merged_timeline_validates_as_chrome_trace(self):
        executor, tracer, state = traced_executor(2)
        with executor:
            with tracer.span("pipeline.simulate"):
                executor.execute_batch(epoch_batch(), state.get)
            if executor.resolved_backend != "process":
                return
        events = validate_chrome_trace(chrome_trace(tracer.spans()))
        tracks = {event["tid"] for event in events}
        assert len(tracks) >= 3  # main + two worker tracks

    def test_untraced_process_run_ships_no_spans(self):
        executor, tracer, state = traced_executor(2)
        executor.tracer = None
        with executor:
            executor.execute_batch(epoch_batch(), state.get)
        assert len(tracer) == 0
