"""Concurrent speculative execution (the paper's execution phase).

Each node "picks transactions that first appear in all verified blocks
and simulates their executions concurrently and speculatively based on
the latest state snapshot" (Section III-B).  The executor runs every
transaction against the same immutable snapshot — execution order is
irrelevant, which is what makes the phase embarrassingly parallel — and
records each transaction's read/write sets through the logger.

Where the batch runs is computed from ``workers``, never configured:

* **in-process** — one loop on the calling thread.  Used whenever
  ``workers <= 1``, and the equivalence oracle for the pool.
* **process pool** — ``workers > 1`` persistent worker processes, each
  bootstrapped once with the pickled contract registry and a **flat
  replica of the world state**.  The parent keeps replicas in sync by
  shipping only the per-epoch commit write-delta (see ``apply_delta``),
  never the full state and never the MPT; workers read the replica with
  plain dict lookups, faithful to the paper's single-snapshot semantics
  because replicas only change *between* epochs.  Transactions and
  results cross the pipe as compact wire tuples
  (:mod:`repro.txn.codec`).  This is the only placement that escapes
  the GIL.

The pool degrades gracefully: an unpicklable registry, a missing state
provider or a worker crash all fall back to the in-process loop, which
produces identical results.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

from repro.analysis.static.deltas import (
    EMPTY_CLASSIFICATION,
    DeltaClassification,
    classify_bytecode,
    resolve_sites,
)
from repro.errors import ExecutionError
from repro.obs.tracer import Tracer, maybe_span
from repro.txn.codec import (
    simulation_result_from_wire,
    simulation_result_to_wire,
    span_from_wire,
    span_to_wire,
    transaction_from_wire,
    transaction_to_wire,
)
from repro.txn.rwset import Address, RWSet
from repro.txn.simulation import SimulationBatch, SimulationResult, SimulationStatus
from repro.txn.transaction import Transaction
from repro.vm.logger import LoggedStorage
from repro.vm.machine import DEFAULT_GAS_LIMIT, ExecutionContext, SVM
from repro.vm.native import ContractRegistry, registry_is_picklable

ReadFn = Callable[[Address], int]
StateProvider = Callable[[], Mapping[Address, int]]


def caller_id(sender: str) -> int:
    """Numeric caller id from a ``user:NNN`` style sender string."""
    _, _, suffix = sender.rpartition(":")
    try:
        return int(suffix)
    except ValueError:
        return 0


def _worker_main(conn, registry, use_vm, gas_limit, index, delta_cc=False) -> None:
    """Loop of one persistent worker process.

    The worker is bootstrapped once (registry, VM flags, worker index) and
    then serves commands off its pipe until told to close:

    * ``("sync", state)`` — replace the flat state replica wholesale
      (initial bootstrap, or resync after the parent marked it stale);
    * ``("delta", writes)`` — fold one epoch's commit write-delta into
      the replica (the steady-state path);
    * ``("exec", wires, want_spans)`` — speculatively execute a chunk of
      wire-tuple transactions against the replica and reply with
      ``("ok", result-wires, span-wires)``.  When the parent traces, the
      worker records one ``execute.worker_chunk`` span per command on its
      own ``worker-N`` track and ships it back; ``perf_counter`` reads
      the system-wide ``CLOCK_MONOTONIC``, so worker timestamps merge
      directly into the parent's timeline.

    Execution never mutates the replica (speculation buffers writes in
    ``LoggedStorage``), so a failed ``exec`` leaves the worker reusable.
    """
    executor = ConcurrentExecutor(
        registry=registry,
        use_vm=use_vm,
        gas_limit=gas_limit,
        delta_cc=delta_cc,
    )
    tracer = Tracer(track=f"worker-{index}")
    replica: dict[Address, int] = {}
    read = lambda address: replica.get(address, 0)  # noqa: E731
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        command = message[0]
        if command == "exec":
            wires = message[1]
            want_spans = bool(message[2]) if len(message) > 2 else False
            try:
                with maybe_span(
                    tracer if want_spans else None,
                    "execute.worker_chunk",
                    txns=len(wires),
                    worker=index,
                ):
                    results = [
                        simulation_result_to_wire(result)
                        for result in executor.execute_run(
                            [transaction_from_wire(wire) for wire in wires],
                            read,
                        )
                    ]
                spans = [span_to_wire(span) for span in tracer.drain()]
                conn.send(("ok", results, spans))
            except Exception as exc:  # surfaced in the parent
                tracer.clear()
                conn.send(("err", f"{type(exc).__name__}: {exc}", ()))
        elif command == "delta":
            replica.update(message[1])
        elif command == "sync":
            replica = dict(message[1])
        elif command == "close":
            break


class _ProcessPool:
    """Persistent worker processes with delta-synced state replicas."""

    def __init__(
        self,
        registry: ContractRegistry | None,
        workers: int,
        use_vm: bool,
        gas_limit: int,
        delta_cc: bool = False,
    ) -> None:
        import multiprocessing as mp

        method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        context = mp.get_context(method)
        self._connections = []
        self._processes = []
        for index in range(workers):
            parent_conn, child_conn = context.Pipe(duplex=True)
            process = context.Process(
                target=_worker_main,
                args=(child_conn, registry, use_vm, gas_limit, index, delta_cc),
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._connections.append(parent_conn)
            self._processes.append(process)

    @property
    def worker_count(self) -> int:
        return len(self._processes)

    def sync(self, state: Mapping[Address, int]) -> None:
        """Replace every worker's replica (bootstrap / stale resync)."""
        for conn in self._connections:
            conn.send(("sync", dict(state)))

    def apply_delta(self, delta: Mapping[Address, int]) -> None:
        """Ship one epoch's commit write-delta to every replica."""
        payload = dict(delta)
        for conn in self._connections:
            conn.send(("delta", payload))

    def execute(
        self, chunks: Sequence[Sequence[Transaction]], want_spans: bool = False
    ) -> tuple[list[list[tuple]], list[tuple]]:
        """Run one chunk per worker; returns (wire results, span wires).

        Raises ``ExecutionError`` for a deterministic in-worker failure
        (the pool stays healthy) and ``OSError``/``EOFError`` for a dead
        worker (the caller retires the pool).  All replies are drained
        before either is raised so the pipes never desynchronise.
        """
        for conn, chunk in zip(self._connections, chunks):
            conn.send(
                ("exec", [transaction_to_wire(txn) for txn in chunk], want_spans)
            )
        replies = []
        transport_error = None
        for conn, chunk in zip(self._connections, chunks):
            try:
                replies.append(conn.recv())
            except (EOFError, OSError) as exc:
                transport_error = exc
                replies.append(None)
        if transport_error is not None:
            raise transport_error
        failures = [detail for status, detail, _ in replies if status == "err"]
        if failures:
            raise ExecutionError(failures[0])
        results = [payload for _, payload, _ in replies]
        spans = [wire for _, _, span_wires in replies for wire in span_wires]
        return results, spans

    def close(self) -> None:
        """Shut every worker down (idempotent)."""
        for conn in self._connections:
            try:
                conn.send(("close",))
            except (OSError, ValueError):
                pass
            conn.close()
        for process in self._processes:
            process.join(timeout=2.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=2.0)
        self._connections = []
        self._processes = []


class ConcurrentExecutor:
    """Simulates a batch of transactions against one state snapshot.

    The worker-process pool is created lazily on the first parallel
    batch and reused for every later epoch — constructing and tearing
    down a pool per ``execute_batch`` call costs spawns every epoch and
    dominated small-batch execution.  Call :meth:`close` (or use the
    executor as a context manager) to release it explicitly.

    ``state_provider`` supplies the flat committed state used to
    bootstrap (and, after :meth:`mark_stale`, resync) the worker
    replicas; without one the pool is not viable and every batch runs
    in-process.
    """

    def __init__(
        self,
        registry: ContractRegistry | None = None,
        workers: int = 0,
        use_vm: bool = False,
        gas_limit: int = DEFAULT_GAS_LIMIT,
        state_provider: StateProvider | None = None,
        tracer: Tracer | None = None,
        delta_cc: bool = False,
    ) -> None:
        self.registry = registry
        self.workers = workers
        self.use_vm = use_vm
        self.gas_limit = gas_limit
        self.state_provider = state_provider
        self.tracer = tracer
        self.delta_cc = delta_cc
        self._delta_classes: dict[tuple[str, str], DeltaClassification] = {}
        self._svm = SVM()
        self._process_pool: _ProcessPool | None = None
        self._process_broken = False
        self._replicas_stale = True  # bootstrap counts as a stale resync

    # ----------------------------------------------------------- placement

    @property
    def resolved_backend(self) -> str:
        """Where the next ``execute_batch`` runs: "process" or "in-process"."""
        if (
            self.workers > 1
            and not self._process_broken
            and self.state_provider is not None
            and registry_is_picklable(self.registry)
        ):
            return "process"
        return "in-process"

    @property
    def process_active(self) -> bool:
        """True while a live worker-process pool is attached."""
        return self._process_pool is not None and not self._process_broken

    def _ensure_process_pool(self) -> "_ProcessPool | None":
        if self._process_pool is None:
            try:
                self._process_pool = _ProcessPool(
                    self.registry,
                    self.workers,
                    self.use_vm,
                    self.gas_limit,
                    self.delta_cc,
                )
            except Exception:
                self._retire_process_pool()
                return None
            self._replicas_stale = True
        return self._process_pool

    def _retire_process_pool(self) -> None:
        """Degrade permanently to the in-process loop."""
        self._process_broken = True
        if self._process_pool is not None:
            pool, self._process_pool = self._process_pool, None
            pool.close()

    def close(self) -> None:
        """Shut down the reused worker pool (idempotent)."""
        if self._process_pool is not None:
            pool, self._process_pool = self._process_pool, None
            pool.close()

    def __enter__(self) -> "ConcurrentExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -------------------------------------------------------- replica sync

    def apply_delta(self, delta: Mapping[Address, int]) -> None:
        """Fold one epoch's commit write-delta into the worker replicas.

        Called by the pipeline after each successful ``Committer.commit``;
        a no-op unless a process pool is live.  Shipping only the delta
        (addresses + values actually written) keeps the steady-state sync
        cost proportional to the epoch's write set, not the world state.
        """
        if not self.process_active or self._replicas_stale or not delta:
            return
        try:
            self._process_pool.apply_delta(delta)
        except (OSError, ValueError):
            self._retire_process_pool()

    def mark_stale(self) -> None:
        """Force a full replica resync before the next process batch.

        Used when state changed outside ``Committer.commit`` (e.g. the
        wave-by-wave re-execution path), where no write-delta exists.
        """
        self._replicas_stale = True

    # ----------------------------------------------------------- execution

    def execute_batch(
        self,
        transactions: Sequence[Transaction],
        read_fn: ReadFn,
        snapshot_root: bytes = b"",
    ) -> SimulationBatch:
        """Speculatively execute every transaction; never mutates state."""
        ordered = sorted(transactions, key=lambda t: t.txid)
        results: list[SimulationResult] | None = None
        if ordered and self.resolved_backend == "process":
            results = self._execute_process(ordered)
        if results is None:
            results = self.execute_run(ordered, read_fn)
        return SimulationBatch(results=tuple(results), snapshot_root=snapshot_root)

    def _execute_process(
        self, ordered: list[Transaction]
    ) -> list[SimulationResult] | None:
        """Fan the batch out to the worker processes; ``None`` on degrade."""
        pool = self._ensure_process_pool()
        if pool is None:
            return None
        try:
            if self._replicas_stale:
                pool.sync(self.state_provider())
                self._replicas_stale = False
            chunk_count = min(pool.worker_count, len(ordered))
            bounds = [
                (len(ordered) * i // chunk_count, len(ordered) * (i + 1) // chunk_count)
                for i in range(chunk_count)
            ]
            chunks = [ordered[lo:hi] for lo, hi in bounds]
            wire_chunks, span_wires = pool.execute(
                chunks, want_spans=self.tracer is not None
            )
        except ExecutionError:
            raise  # deterministic contract failure: same as serial would raise
        except Exception:
            self._retire_process_pool()
            return None
        if self.tracer is not None and span_wires:
            self.tracer.extend(span_from_wire(wire) for wire in span_wires)
        return [
            simulation_result_from_wire(wire, txn)
            for chunk, wires in zip(chunks, wire_chunks)
            for txn, wire in zip(chunk, wires)
        ]

    def execute_run(
        self, chunk: Sequence[Transaction], read_fn: ReadFn
    ) -> list[SimulationResult]:
        """Execute a run of transactions on the calling thread."""
        return [self.execute_one(txn, read_fn) for txn in chunk]

    def execute_one(self, txn: Transaction, read_fn: ReadFn) -> SimulationResult:
        """Speculatively execute a single transaction (always in-process)."""
        if txn.contract is None or self.registry is None:
            return self._passthrough(txn, read_fn)
        # Transactions are untrusted: arguments that are not integers
        # revert the call, on both paths, instead of raising out of the
        # epoch (a wrong argument *count* reverts inside the contract).
        try:
            args = tuple(map(int, txn.args))
        except (TypeError, ValueError):
            return SimulationResult(
                transaction=txn,
                rwset=RWSet(),
                status=SimulationStatus.REVERTED,
                error="malformed call: arguments must be integers",
            )
        if self.use_vm:
            return self._execute_vm(txn, args, read_fn)
        return self._execute_native(txn, args, read_fn)

    def _passthrough(self, txn: Transaction, read_fn: ReadFn) -> SimulationResult:
        """Synthetic transaction: rwset provided up front, reads resolved.

        Declared delta units pass through only under delta-CC; otherwise
        they *downgrade* to the equivalent read-modify-write (the read
        resolves against the snapshot and the write carries the summed
        value), so baseline schedulers see the plain conflict structure.
        """
        reads = {address: read_fn(address) for address in txn.read_set}
        writes: dict[Address, object] = dict(txn.rwset.writes)
        deltas: dict[Address, int] = {}
        if self.delta_cc:
            deltas = dict(txn.rwset.deltas)
        else:
            for address, delta in txn.rwset.deltas.items():
                value = read_fn(address)
                reads[address] = value
                writes[address] = value + delta
        rwset = RWSet(reads=reads, writes=writes, deltas=deltas)
        return SimulationResult(transaction=txn, rwset=rwset)

    def _delta_classification(self, contract: str, function: str) -> DeltaClassification:
        """Cached static delta classification of one deployed function."""
        key = (contract, function)
        cached = self._delta_classes.get(key)
        if cached is not None:
            return cached
        code = self.registry.bytecode(contract, function) if self.registry else None
        classification = (
            classify_bytecode(code) if code is not None else EMPTY_CLASSIFICATION
        )
        self._delta_classes[key] = classification
        return classification

    def _delta_sites(
        self, txn: Transaction, args: tuple[int, ...]
    ) -> tuple[tuple[Address, int], ...]:
        """Resolve a call's statically classified delta sites, if any."""
        if not self.delta_cc or txn.contract is None or self.registry is None:
            return ()
        classification = self._delta_classification(txn.contract, txn.function)
        if not classification.sites:
            return ()
        renderer = self.registry.key_renderer(txn.contract)
        if renderer is None:
            return ()
        return resolve_sites(classification, args, caller_id(txn.sender), renderer)

    def _execute_native(
        self, txn: Transaction, args: tuple[int, ...], read_fn: ReadFn
    ) -> SimulationResult:
        contract = self.registry.native(txn.contract)
        if contract is None:
            raise ExecutionError(f"contract {txn.contract!r} is not deployed")
        storage = LoggedStorage(read_fn)
        receipt = contract.call(
            txn.function, storage, args, caller=caller_id(txn.sender)
        )
        if receipt.success:
            sites = self._delta_sites(txn, args)
            if sites:
                storage.promote_deltas(sites)
                receipt.rwset = storage.rwset()
        return self._result_from_receipt(txn, receipt)

    def _execute_vm(
        self, txn: Transaction, args: tuple[int, ...], read_fn: ReadFn
    ) -> SimulationResult:
        code = self.registry.bytecode(txn.contract, txn.function)
        renderer = self.registry.key_renderer(txn.contract)
        if code is None or renderer is None:
            raise ExecutionError(
                f"no bytecode for {txn.contract!r}.{txn.function!r}"
            )
        storage = LoggedStorage(read_fn)
        context = ExecutionContext(
            storage=storage,
            args=args,
            caller=caller_id(txn.sender),
            gas_limit=self.gas_limit,
            key_renderer=renderer,
            delta_sites=self._delta_sites(txn, args),
        )
        receipt = self._svm.execute(code, context)
        return self._result_from_receipt(txn, receipt)

    @staticmethod
    def _result_from_receipt(txn: Transaction, receipt) -> SimulationResult:
        status = (
            SimulationStatus.SUCCESS if receipt.success else SimulationStatus.REVERTED
        )
        return SimulationResult(
            transaction=txn,
            rwset=receipt.rwset,
            status=status,
            gas_used=receipt.gas_used,
            return_value=receipt.return_value,
            error=receipt.error,
        )
