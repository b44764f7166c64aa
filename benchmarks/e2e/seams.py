"""Every import from the program, and every span the benchmark records.

This is the only benchmark module that imports ``repro``, and it uses only
names exported from package ``__init__``s — so a rename of a seam function in
``src/`` either keeps the old export or goes through a ``benchmark`` issue
(see README.md).  Spans are recorded *here*, around calls into each layer's
public functions; the program's own ``Tracer`` / ``PhaseLatencies`` /
``PhaseTimings`` are never read.
"""

from __future__ import annotations

import dataclasses
import gc
import itertools
import threading
import time
from contextlib import contextmanager
from types import SimpleNamespace
from typing import Iterator

from repro.analysis import certify_epoch
from repro.core import (
    IncrementalACG,
    NezhaScheduler,
    build_dense_acg,
    dense_acg_equal,
    divide_ranks_dense,
    intern_batch,
    sort_transactions_dense,
    validate_sort_dense,
)
from repro.dag import EpochCoordinator, Mempool, ParallelChains, PoWParams
from repro.node import FullNode, PipelineConfig
from repro.state import FlatStateDB
from repro.storage import KVStore, LSMStore, MemStore
from repro.vm.contracts import default_registry
from repro.workload import (
    SmallBankConfig,
    SmallBankWorkload,
    SyntheticConfig,
    SyntheticWorkload,
    initial_state,
)

from workloads import (
    BLOCK_SIZE,
    OMEGA,
    POW_BITS,
    SYNTHETIC_READS,
    SYNTHETIC_WRITES,
    Workload,
)

SETUP_EPOCH = -1
"""Epoch id of spans recorded during node bring-up (genesis seal)."""


# ------------------------------------------------------------------ inputs


def generate_transactions(workload: Workload, seed: int, count: int) -> list:
    """The workload's transactions for ``seed`` (same seed, same inputs)."""
    if workload.kind == "smallbank":
        config = SmallBankConfig(
            account_count=workload.accounts, skew=workload.skew, seed=seed
        )
        return SmallBankWorkload(config).generate(count)
    config = SyntheticConfig(
        address_count=workload.accounts,
        reads_per_txn=SYNTHETIC_READS,
        writes_per_txn=SYNTHETIC_WRITES,
        skew=workload.skew,
        seed=seed,
    )
    return SyntheticWorkload(config).generate(count)


def genesis_of(workload: Workload, transactions: list | None) -> dict[str, int]:
    """Opening state.  SmallBank has its own; the synthetic workload opens
    every address its generated transactions touch at 1, so its seal works on
    a populated trie and its ``setup_s`` is a real bring-up."""
    if workload.kind == "smallbank":
        return initial_state(SmallBankConfig(account_count=workload.accounts))
    touched: set[str] = set()
    for txn in transactions or ():
        touched.update(txn.rwset.reads)
        touched.update(txn.rwset.writes)
    return dict.fromkeys(sorted(touched), 1)


def fingerprint(report) -> list:
    """What must be identical wherever the same blocks are replayed."""
    return [
        report.state_root.hex(),
        report.committed,
        report.aborted,
        report.failed_simulation,
        report.input_transactions,
    ]


def premine(workload: Workload, seed: int, epochs: int) -> dict:
    """Mine ``epochs`` epochs against a probe node (MemStore, native
    execution, barrier) — as ``benchmarks/bench_streaming.py::_mine_epochs``
    does — and return the blocks, the synthetic genesis and the probe's
    per-epoch fingerprints."""
    transactions = generate_transactions(
        workload, seed, epochs * OMEGA * BLOCK_SIZE + 500
    )
    genesis = None if workload.kind == "smallbank" else genesis_of(workload, transactions)
    mempool = Mempool()
    mempool.submit_many(transactions)
    probe_spec = dataclasses.replace(
        workload, store="mem", use_vm=False, streaming=False
    )
    probe, _ = build_node(probe_spec, None, genesis)
    coordinator = EpochCoordinator(
        chains=ParallelChains(chain_count=OMEGA, pow_params=PoWParams(POW_BITS)),
        miners=["miner-0"],
        block_size=BLOCK_SIZE,
    )
    mined = []
    fingerprints = []
    with probe:
        root = probe.state_root
        for _ in range(epochs):
            blocks = coordinator.mine_epoch(mempool, state_root=root)
            mined.append(blocks)
            report = probe.receive_epoch(blocks)
            fingerprints.append(fingerprint(report))
            root = report.state_root
    return {"genesis": genesis, "epochs": mined, "fingerprints": fingerprints}


# ------------------------------------------------------------------- spans


class SpanLog:
    """In-memory span recorder: name, start, end, parent, epoch id.

    One stack per thread gives each span the span that caused it; a span
    with no parent takes the epoch it was told, else the epoch the replay
    loop is on.  Store operations are too many to record one by one (12 k
    per epoch on ``largestate-lsm``); :meth:`fold_storage` records them as
    one aggregate child per (seal span, operation kind).  Garbage-collector
    pauses are timed through ``gc.callbacks`` and added to the ``gc_s`` of the
    innermost span open on the collecting thread, so a pause that lands
    between two seams is named time, not a hole in the epoch.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.epoch = SETUP_EPOCH
        self.origin = time.perf_counter()
        self._ids = itertools.count()
        self._local = threading.local()
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._local.gc_start = time.perf_counter()
            return
        stack = getattr(self._local, "stack", None)
        if stack:
            stack[-1]["gc_s"] += time.perf_counter() - self._local.gc_start

    @contextmanager
    def span(self, name: str, epoch: int | None = None, **counts) -> Iterator[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        if parent is not None:
            epoch = parent["epoch"]
        elif epoch is None:
            epoch = self.epoch
        record = {
            "id": next(self._ids),
            "name": name,
            "parent": parent["id"] if parent is not None else None,
            "epoch": epoch,
            "thread": threading.current_thread().name,
            "gc_s": 0.0,
            **counts,
        }
        stack.append(record)
        record["start"] = time.perf_counter() - self.origin
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self.origin
            stack.pop()
            self.spans.append(record)

    def fold_storage(self, parent: dict, before: tuple, after: tuple) -> None:
        """Record the store traffic between two ``TracedStore.totals()``."""
        get_s, gets, put_s, puts, bytes_put = (b - a for a, b in zip(before, after))
        for name, busy, count, extra in (
            ("storage.get", get_s, gets, {}),
            ("storage.put", put_s, puts, {"bytes": bytes_put}),
        ):
            self.spans.append(
                {
                    "id": next(self._ids),
                    "name": name,
                    "parent": parent["id"],
                    "epoch": parent["epoch"],
                    "thread": parent["thread"],
                    "aggregate": True,
                    "busy_s": busy,
                    "count": count,
                    **extra,
                }
            )


def busy_seconds(span: dict) -> float:
    return span["busy_s"] if span.get("aggregate") else span["end"] - span["start"]


class TracedStore(KVStore):
    """The real store behind a timer: seconds, operations and bytes."""

    def __init__(self, inner: KVStore) -> None:
        self.inner = inner
        self.get_s = 0.0
        self.gets = 0
        self.put_s = 0.0
        self.puts = 0
        self.bytes_put = 0

    def totals(self) -> tuple:
        return (self.get_s, self.gets, self.put_s, self.puts, self.bytes_put)

    def get(self, key: bytes) -> bytes | None:
        start = time.perf_counter()
        value = self.inner.get(key)
        self.get_s += time.perf_counter() - start
        self.gets += 1
        return value

    def put(self, key: bytes, value: bytes) -> None:
        start = time.perf_counter()
        self.inner.put(key, value)
        self.put_s += time.perf_counter() - start
        self.puts += 1
        self.bytes_put += len(key) + len(value)

    def delete(self, key: bytes) -> None:
        start = time.perf_counter()
        self.inner.delete(key)
        self.put_s += time.perf_counter() - start
        self.puts += 1
        self.bytes_put += len(key)

    def write(self, batch) -> None:
        start = time.perf_counter()
        self.inner.write(batch)
        self.put_s += time.perf_counter() - start
        self.puts += len(batch)
        self.bytes_put += sum(
            len(key) + len(value or b"") for key, value in batch.operations
        )

    def scan(self, prefix: bytes = b""):
        return self.inner.scan(prefix)

    def scan_range(self, start: bytes = b"", end: bytes | None = None):
        return self.inner.scan_range(start, end)

    def close(self) -> None:
        self.inner.close()


class TracedState(FlatStateDB):
    """``FlatStateDB`` with its per-epoch seal timed.  A subclass, not a
    proxy: the streaming engine checks ``isinstance(state, FlatStateDB)``."""

    def __init__(self, store: TracedStore, log: SpanLog) -> None:
        super().__init__(store=store)
        self._log = log
        self._traced_store = store

    def commit(self) -> bytes:
        before = self._traced_store.totals()
        with self._log.span("state.seal", dirty_keys=self.dirty_count) as span:
            root = super().commit()
        self._log.fold_storage(span, before, self._traced_store.totals())
        return root


class TracedScheduler(NezhaScheduler):
    """``NezhaScheduler`` with ``schedule`` / ``schedule_dense`` timed and
    their input and result kept, so the counts can be read and the CC
    sub-phases replayed once the replay is over."""

    def __init__(self, log: SpanLog) -> None:
        super().__init__()
        self._log = log
        self.captured: list[dict] = []

    def schedule(self, transactions):
        with self._log.span("core.schedule", epoch=len(self.captured)) as span:
            result = super().schedule(transactions)
        self.captured.append(
            {"span": span, "result": result, "transactions": transactions}
        )
        return result

    def schedule_dense(self, dense, graph_seconds: float = 0.0):
        with self._log.span("core.schedule", epoch=len(self.captured)) as span:
            result = super().schedule_dense(dense, graph_seconds)
        self.captured.append({"span": span, "result": result, "dense": dense})
        return result


def instrument(node: FullNode, log: SpanLog) -> list[tuple[dict, object]]:
    """Instance-level wrappers on the executor, committer and chains.

    The wrappers only time and keep references — whatever costs a pass over
    the batch waits for :func:`read_counts`, so the bookkeeping does not show
    up as untimed epoch time.  Returns the ``(span, SimulationBatch)`` pairs
    the executor wrapper collects.
    """
    batches: list[tuple[dict, object]] = []
    executor = node.pipeline.executor
    inner_execute = executor.execute_batch

    def execute_batch(transactions, read_fn, snapshot_root=b""):
        with log.span("executor.execute", txns=len(transactions)) as span:
            batch = inner_execute(transactions, read_fn, snapshot_root=snapshot_root)
        batches.append((span, batch))
        return batch

    executor.execute_batch = execute_batch

    committer = node.pipeline.committer
    inner_commit = committer.commit
    commits = itertools.count()

    def commit(schedule, write_values, state, delta_values=None):
        with log.span("committer.commit", epoch=next(commits)) as span:
            report = inner_commit(
                schedule, write_values, state, delta_values=delta_values
            )
        span["committed"] = report.committed_count
        span["writes"] = len(report.write_delta or ())
        return report

    committer.commit = commit

    inner_append = node.chains.append

    def append(block):
        with log.span("dag.append", blocks=1):
            inner_append(block)

    node.chains.append = append
    return batches


def read_counts(
    scheduler: TracedScheduler, batches: list[tuple[dict, object]]
) -> dict[int, dict]:
    """After the replay: put the counts on the executor and scheduler spans
    and return each epoch's final ``txid -> SimulationResult`` (a later batch
    replaces an earlier one's results, as the streaming engine's
    reconciliation does)."""
    results: dict[int, dict] = {}
    for span, batch in batches:
        span["reverted"] = batch.failed_count
        span["gas"] = sum(result.gas_used for result in batch.results)
        results.setdefault(span["epoch"], {}).update(
            (result.txid, result) for result in batch.results
        )
    for captured in scheduler.captured:
        result = captured["result"]
        schedule = result.schedule
        captured["span"].update(
            scheduled=result.dense_acg.txn_count,
            addresses=result.dense_acg.addr_count,
            units=result.dense_acg.unit_count,
            aborted=len(schedule.aborted),
            reordered=len(schedule.reordered),
            revived=result.revived,
            commit_groups=len(schedule.groups),
        )
    return results


# ---------------------------------------------------------------- the node


def build_node(
    workload: Workload,
    store_dir: str | None,
    genesis: dict[str, int] | None,
    log: SpanLog | None = None,
    certify: bool = False,
):
    """Bring one node up: store + state, genesis, ``FullNode``.

    Library defaults throughout (``LSMStore(dir)``, ``FlatStateDB(store=…)``,
    ``workers = 0``, no tracer).  Returns ``(node, store)``; ``store`` is
    the :class:`TracedStore` when ``log`` is given.
    """
    store: KVStore = LSMStore(store_dir) if workload.store == "lsm" else MemStore()
    if log is not None:
        store = TracedStore(store)
        state: FlatStateDB = TracedState(store, log)
        scheduler: NezhaScheduler = TracedScheduler(log)
    else:
        state = FlatStateDB(store=store)
        scheduler = NezhaScheduler()
    state.seed(genesis if genesis is not None else genesis_of(workload, None))
    registry = None
    if workload.kind == "smallbank":
        registry = default_registry(include_bytecode=workload.use_vm)
    node = FullNode(
        chains=ParallelChains(chain_count=OMEGA, pow_params=PoWParams(POW_BITS)),
        state=state,
        scheduler=scheduler,
        registry=registry,
        config=PipelineConfig(
            use_vm=workload.use_vm, streaming=workload.streaming, certify=certify
        ),
    )
    return node, store


def engine_stats(node: FullNode) -> dict:
    """The streaming engine's public ``EngineStats`` (zeros on barrier)."""
    stats = node.engine.stats if node.engine is not None else None
    return {
        "hit_rate": stats.hit_rate if stats else 0.0,
        "reexecuted": stats.reexecuted if stats else 0,
        "fallback_epochs": stats.epochs_fallback if stats else 0,
    }


def sstable_count(store: KVStore) -> int:
    inner = getattr(store, "inner", store)
    return inner.table_count if isinstance(inner, LSMStore) else 0


# ------------------------------------------------- CC sub-phases, replayed


def replay_cc_subphases(
    scheduler: TracedScheduler, results: dict[int, dict], epochs: list
) -> list[dict]:
    """Time the four CC sub-phases on each captured batch, outside every
    epoch span, through the public ``repro.core`` functions.

    Barrier epochs rebuild the graph as the scheduler did
    (``intern_batch`` + ``build_dense_acg``); streamed epochs rebuild it as
    the engine did (``IncrementalACG`` block by block, then ``seal``) and
    must reproduce the graph the scheduler was handed.  Either way the
    replayed aborted set must equal the scheduler's.
    """
    # A collection of the whole replay's heap inside a 10 ms phase would be
    # the heap's cost, not the phase's; inside the node the collector runs
    # as it likes and its pauses are recorded as ``gc_s``.
    gc.disable()
    try:
        return [
            _time_cc_subphases(captured, scheduler.config, results, epochs)
            for captured in scheduler.captured
        ]
    finally:
        gc.enable()


def _time_cc_subphases(
    captured: dict, config, results: dict[int, dict], epochs: list
) -> dict:
    """One captured batch through build, rank, sort and validate."""
    index = captured["span"]["epoch"]
    scheduler_aborted = set(captured["result"].schedule.aborted)
    start = time.perf_counter()
    if "transactions" in captured:
        dense = build_dense_acg(intern_batch(captured["transactions"]))
    else:
        by_txid = results[index]
        incremental = IncrementalACG()
        for block in sorted(epochs[index], key=lambda b: b.chain_id):
            incremental.add_block(
                by_txid[txn.txid].as_transaction()
                for txn in block.transactions
                if by_txid[txn.txid].ok
            )
        dense = incremental.seal()
        if not dense_acg_equal(dense, captured["dense"]):
            raise AssertionError(
                f"epoch {index}: replayed incremental ACG differs from the "
                "graph the scheduler was handed"
            )
    built = time.perf_counter()
    rank_ids = divide_ranks_dense(dense, policy=config.rank_policy)
    ranked = time.perf_counter()
    state = sort_transactions_dense(
        dense,
        rank_ids,
        enable_reorder=config.enable_reorder,
        initial_seq=config.initial_seq,
    )
    sorted_at = time.perf_counter()
    validate_sort_dense(dense, state, enable_reorder=config.enable_reorder)
    validated = time.perf_counter()
    txids = dense.batch.txids
    aborted = {txids[i] for i in range(dense.txn_count) if not state.alive[i]}
    if aborted != scheduler_aborted:
        raise AssertionError(
            f"epoch {index}: replayed CC aborted {len(aborted)} transactions, "
            f"the scheduler {len(scheduler_aborted)}"
        )
    return {
        "epoch": index,
        "acg_build_s": built - start,
        "rank_s": ranked - built,
        "sort_s": sorted_at - ranked,
        "validate_s": validated - sorted_at,
    }


# ------------------------------------------------------------ certification


def recertify(node: FullNode) -> list[dict]:
    """Re-run the public certifier on each retained epoch artifact, timed.

    The live certificate (made inside the pipeline) and this offline one
    must agree on verdict, witness digest and conflict-edge count.
    """
    rows = []
    for report, artifact in zip(node.reports, node.pipeline.artifacts):
        live = report.certificate
        start = time.perf_counter()
        offline = certify_epoch(
            artifact["rwsets"],
            SimpleNamespace(groups=artifact["groups"], aborted=artifact["aborted"]),
            abort_reasons=artifact["abort_reasons"],
            guard_aborted=artifact["guard_aborted"],
            failed=artifact["failed"],
            reason_counts=artifact["reason_counts"],
            epoch_index=artifact["epoch"],
            scheme=artifact["scheme"],
        )
        seconds = time.perf_counter() - start
        rows.append(
            {
                "epoch": artifact["epoch"],
                "ok": bool(
                    live is not None
                    and live.ok
                    and offline.ok
                    and offline.witness_digest == live.witness_digest
                    and offline.conflict_edges == live.conflict_edges
                ),
                "seconds": seconds,
                "conflict_edges": offline.conflict_edges,
            }
        )
    return rows
