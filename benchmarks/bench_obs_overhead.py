"""Extension — flight-recorder overhead on the epoch hot path.

Not a paper figure: proves the observability subsystem is cheap enough
to leave on.  The same pre-mined epochs are replayed through
identically-seeded full nodes — one bare, one with a live ``Tracer``,
one with a ``FlightLedger`` — interleaved
round by round so machine drift hits every arm alike.  The headline is
the relative gap between each instrumented arm's p50 epoch-processing
latency and the bare one's, which must stay under
``OVERHEAD_CEILING`` (5%) per arm.

Run directly (``PYTHONPATH=src python benchmarks/bench_obs_overhead.py``)
to refresh ``benchmarks/results/BENCH_obs_overhead.json``, or via pytest
where the ``perf_smoke``-marked test asserts the ceiling.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

import pytest

from repro.dag import EpochCoordinator, Mempool, ParallelChains, PoWParams
from repro.net import NodeSpec, build_node
from repro.node import FullNode
from repro.obs import FlightLedger, Tracer
from repro.workload import SmallBankConfig, SmallBankWorkload

RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_obs_overhead.json"

SKEW = 0.6
OMEGA = 4
BLOCK_SIZE = 120
ACCOUNTS = 2_000
SEED = 29
EPOCHS = 3
ROUNDS = 20  # ~0.1 s a replay: the time 6 rounds took on the trie-walking state
POW_BITS = 4

OVERHEAD_CEILING = 0.05

WORKLOAD_CONFIG = SmallBankConfig(account_count=ACCOUNTS, skew=SKEW, seed=SEED)
SPEC = NodeSpec(chain_count=OMEGA, workload=WORKLOAD_CONFIG, pow=PoWParams(POW_BITS))


def _fresh_node(mode: str) -> FullNode:
    """One replay node: ``bare``, ``traced``, or ``ledger``."""
    return build_node(
        SPEC,
        tracer=Tracer() if mode == "traced" else None,
        ledger=FlightLedger() if mode == "ledger" else None,
    )


def _premine(epochs: int) -> list[list]:
    """Mine the shared epoch sequence once (off the measured path).

    Block headers chain state roots, so mining drives a throwaway node
    forward; every replay node is seeded identically and reproduces the
    same roots, making the pre-mined blocks valid for all of them.
    """
    driver = _fresh_node("bare")
    chains = ParallelChains(
        chain_count=OMEGA, pow_params=driver.chains.pow_params
    )
    coordinator = EpochCoordinator(
        chains=chains, miners=["m0", "m1"], block_size=BLOCK_SIZE
    )
    pool = Mempool()
    pool.submit_many(
        SmallBankWorkload(WORKLOAD_CONFIG).generate(
            epochs * OMEGA * BLOCK_SIZE + 200
        )
    )
    mined = []
    with driver:
        for _ in range(epochs):
            blocks = coordinator.mine_epoch(pool, state_root=driver.state_root)
            driver.receive_epoch(blocks)
            mined.append(blocks)
    return mined


def _replay(epoch_blocks: list[list], mode: str) -> list[float]:
    """Per-epoch processing seconds through one fresh node."""
    node = _fresh_node(mode)
    samples = []
    with node:
        for blocks in epoch_blocks:
            start = time.perf_counter()
            node.receive_epoch(blocks)
            samples.append(time.perf_counter() - start)
        if node.tracer is not None and len(node.tracer) == 0:
            raise RuntimeError("traced replay recorded no spans")
        if node.ledger is not None and node.ledger.recorded == 0:
            raise RuntimeError("ledger replay recorded no events")
    return samples


def _percentiles(samples: list[float]) -> dict[str, float]:
    ordered = sorted(samples)
    rank = max(0, round(0.95 * (len(ordered) - 1)))
    return {
        "p50_ms": statistics.median(ordered) * 1e3,
        "p95_ms": ordered[rank] * 1e3,
    }


def measure_obs_overhead(epochs: int = EPOCHS, rounds: int = ROUNDS) -> dict:
    """Replay bare/traced/ledger nodes interleaved; return the payload."""
    mined = _premine(epochs)
    samples: dict[str, list[float]] = {"bare": [], "traced": [], "ledger": []}
    _replay(mined, "traced")  # warm-up: JIT-free but primes caches/pools
    for _ in range(rounds):
        for mode in samples:
            samples[mode].extend(_replay(mined, mode))
    stats = {mode: _percentiles(arm) for mode, arm in samples.items()}
    bare_p50 = stats["bare"]["p50_ms"]
    traced_overhead = (stats["traced"]["p50_ms"] - bare_p50) / bare_p50
    ledger_overhead = (stats["ledger"]["p50_ms"] - bare_p50) / bare_p50
    return {
        "benchmark": "obs_overhead",
        "workload": {
            "generator": "smallbank",
            "skew": SKEW,
            "omega": OMEGA,
            "block_size": BLOCK_SIZE,
            "accounts": ACCOUNTS,
            "seed": SEED,
            "epochs": epochs,
        },
        "rounds": rounds,
        "untraced": stats["bare"],
        "traced": stats["traced"],
        "ledger": stats["ledger"],
        "overhead_frac_p50": round(traced_overhead, 4),
        "ledger_overhead_frac_p50": round(ledger_overhead, 4),
        "ceiling_frac": OVERHEAD_CEILING,
    }


def write_results(payload: dict, path: Path = RESULTS_PATH) -> None:
    """Persist the machine-readable benchmark artifact."""
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


@pytest.mark.perf_smoke
def test_obs_overhead_under_ceiling(report_table):
    """Tracing-on and ledger-on must each add < 5% to p50 epoch latency."""
    payload = measure_obs_overhead()
    report_table(
        "obs_overhead",
        "\n".join(
            [
                "mode | p50 ms | p95 ms",
                f"untraced | {payload['untraced']['p50_ms']:.2f} | "
                f"{payload['untraced']['p95_ms']:.2f}",
                f"traced | {payload['traced']['p50_ms']:.2f} | "
                f"{payload['traced']['p95_ms']:.2f}",
                f"ledger | {payload['ledger']['p50_ms']:.2f} | "
                f"{payload['ledger']['p95_ms']:.2f}",
                f"tracing overhead (p50): "
                f"{100 * payload['overhead_frac_p50']:.2f}%, "
                f"ledger overhead (p50): "
                f"{100 * payload['ledger_overhead_frac_p50']:.2f}% "
                f"(ceiling {100 * OVERHEAD_CEILING:.0f}% each)",
            ]
        ),
    )
    assert payload["overhead_frac_p50"] < OVERHEAD_CEILING
    assert payload["ledger_overhead_frac_p50"] < OVERHEAD_CEILING


def main() -> int:
    payload = measure_obs_overhead()
    write_results(payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    overhead = payload["overhead_frac_p50"]
    ledger_overhead = payload["ledger_overhead_frac_p50"]
    print(
        f"\ntracing overhead: {100 * overhead:.2f}%, "
        f"ledger overhead: {100 * ledger_overhead:.2f}% "
        f"(ceiling {100 * OVERHEAD_CEILING:.0f}% each)"
    )
    ok = overhead < OVERHEAD_CEILING and ledger_overhead < OVERHEAD_CEILING
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
