"""Benchmark harness: scheme runners and parameter sweeps.

Benchmarks compare concurrency-control schemes over identical workloads.
``run_scheme`` executes one scheme over one batch and returns a uniform
:class:`SchemeRun` regardless of the scheme's own result type, so sweep
code never special-cases Nezha vs CG vs OCC.

Scale note: the paper's full scale (block size 200, up to 12 blocks,
Smallbank over 10k accounts) is the default, but ``bench_scale()`` lets
``REPRO_BENCH_SCALE`` shrink workloads proportionally for quick runs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

from repro.baselines.conflict_graph import CGConfig, CGScheduler
from repro.baselines.occ import OCCScheduler
from repro.baselines.pcc import PCCScheduler
from repro.baselines.serial import SerialScheduler
from repro.core.schedule import Schedule
from repro.core.scheduler import NezhaConfig, NezhaScheduler
from repro.obs.taxonomy import taxonomy_counts
from repro.obs.tracer import maybe_span
from repro.txn.transaction import Transaction
from repro.workload.smallbank import SmallBankConfig, SmallBankWorkload
from repro.workload.generator import flatten_blocks

if TYPE_CHECKING:
    from repro.node.pipeline import Scheduler


def bench_scale() -> float:
    """Workload scale factor from ``REPRO_BENCH_SCALE`` (default 1.0)."""
    try:
        return max(0.05, float(os.environ.get("REPRO_BENCH_SCALE", "1.0")))
    except ValueError:
        return 1.0


def scaled(value: int) -> int:
    """Scale an integer workload parameter, keeping it at least 1."""
    return max(1, round(value * bench_scale()))


@dataclass
class SchemeRun:
    """Uniform result of running one scheme over one batch."""

    scheme: str
    schedule: Schedule
    total_seconds: float
    phase_seconds: dict[str, float] = field(default_factory=dict)
    failed: bool = False
    abort_reasons: dict[str, int] = field(default_factory=dict)

    @property
    def committed(self) -> int:
        """Committed transaction count."""
        return self.schedule.committed_count

    @property
    def abort_rate(self) -> float:
        """Aborted fraction of the batch."""
        return self.schedule.abort_rate


SchemeFactory = Callable[[], "Scheduler"]

SCHEMES: dict[str, SchemeFactory] = {
    "serial": SerialScheduler,
    "occ": OCCScheduler,
    "pcc": PCCScheduler,
    "cg": CGScheduler,
    "nezha": NezhaScheduler,
    "nezha-noreorder": lambda: NezhaScheduler(NezhaConfig(enable_reorder=False)),
}


def make_scheme(name: str, cycle_budget: int | None = None) -> Scheduler:
    """Instantiate a scheme by name (CG accepts a cycle budget)."""
    if name == "cg" and cycle_budget is not None:
        return CGScheduler(CGConfig(cycle_budget=cycle_budget))
    return SCHEMES[name]()


def run_scheme(scheme: Scheduler, transactions: Sequence[Transaction]) -> SchemeRun:
    """Execute one scheme over one batch with wall-clock timing."""
    with maybe_span(scheme.tracer, "bench.run_scheme", scheme=scheme.name) as span:
        result = scheme.schedule(transactions)
    return SchemeRun(
        scheme=scheme.name,
        schedule=result.schedule,
        total_seconds=span.duration,
        phase_seconds=result.phase_seconds(),
        failed=result.failed,
        abort_reasons=taxonomy_counts(result.schedule.aborted, result.abort_reasons),
    )


def smallbank_epoch(
    block_concurrency: int,
    block_size: int,
    skew: float,
    seed: int = 0,
    account_count: int = 10_000,
) -> list[Transaction]:
    """One epoch's deduplicated transactions for the given parameters."""
    workload = SmallBankWorkload(
        SmallBankConfig(account_count=account_count, skew=skew, seed=seed)
    )
    return flatten_blocks(workload.generate_blocks(block_concurrency, block_size))


def repeat_runs(
    scheme_name: str,
    transactions: Sequence[Transaction],
    rounds: int = 3,
    cycle_budget: int | None = None,
) -> list[SchemeRun]:
    """Run a scheme several times over the same batch (fresh instances)."""
    return [
        run_scheme(make_scheme(scheme_name, cycle_budget), transactions)
        for _ in range(rounds)
    ]
