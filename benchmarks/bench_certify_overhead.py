"""Extension — schedule-certifier overhead on the epoch hot path.

Not a paper figure: proves the proof-carrying certificate check is
cheap enough to leave on in production runs.  The same pre-mined epochs
are replayed through two identically-seeded full nodes — one plain, one
with ``PipelineConfig(certify=True)`` so every epoch's conflict graph
is rebuilt and checked from scratch — interleaved round by round so
machine drift hits both alike.  The headline is the gap between the
certified and plain p50 epoch-processing latencies, which must stay
under ``OVERHEAD_CEILING_MS`` (5.5 ms); the relative gap is reported
beside it.

Run directly (``PYTHONPATH=src python benchmarks/bench_certify_overhead.py``)
to refresh ``benchmarks/results/BENCH_certify_overhead.json``, or via
pytest where the ``perf_smoke``-marked test asserts the ceiling.
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
from repro.node import FullNode, PipelineConfig
from repro.workload import SmallBankConfig, SmallBankWorkload

RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_certify_overhead.json"

SKEW = 0.6
OMEGA = 4
BLOCK_SIZE = 120
ACCOUNTS = 2_000
SEED = 31
EPOCHS = 3
ROUNDS = 20  # ~0.1 s a replay: the time 6 rounds took on the trie-walking state
POW_BITS = 4

# 5% of the ~110 ms plain p50 this replay measured on a 2-core x86 guest
# while ``StateDB()`` walked the trie on every read and re-hashed a path
# on every write.  The flat state cut that epoch to ~20 ms and left the
# certifier's own ~4-5 ms where it was, so the budget is held in
# milliseconds rather than as a share of the epoch.
OVERHEAD_CEILING_MS = 5.5

WORKLOAD_CONFIG = SmallBankConfig(account_count=ACCOUNTS, skew=SKEW, seed=SEED)


def _fresh_node(certify: bool) -> FullNode:
    return build_node(
        NodeSpec(
            chain_count=OMEGA,
            workload=WORKLOAD_CONFIG,
            pipeline=PipelineConfig(certify=certify),
            pow=PoWParams(POW_BITS),
        )
    )


def _premine(epochs: int) -> list[list]:
    """Mine the shared epoch sequence once (off the measured path)."""
    driver = _fresh_node(certify=False)
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


def _replay(epoch_blocks: list[list], certify: bool) -> list[float]:
    """Per-epoch processing seconds through one fresh node."""
    node = _fresh_node(certify)
    samples = []
    with node:
        for blocks in epoch_blocks:
            start = time.perf_counter()
            node.receive_epoch(blocks)
            samples.append(time.perf_counter() - start)
        if certify:
            reports = node.reports
            if not reports or any(r.certificate is None for r in reports):
                raise RuntimeError("certified replay produced no certificates")
            if any(not r.certificate.ok for r in reports):
                raise RuntimeError("certified replay rejected an epoch")
    return samples


def _percentiles(samples: list[float]) -> dict[str, float]:
    ordered = sorted(samples)
    rank = max(0, round(0.95 * (len(ordered) - 1)))
    return {
        "p50_ms": statistics.median(ordered) * 1e3,
        "p95_ms": ordered[rank] * 1e3,
    }


def measure_certify_overhead(epochs: int = EPOCHS, rounds: int = ROUNDS) -> dict:
    """Replay certified and plain nodes interleaved; return the payload."""
    mined = _premine(epochs)
    plain: list[float] = []
    certified: list[float] = []
    _replay(mined, certify=True)  # warm-up: primes caches/pools
    for _ in range(rounds):
        plain.extend(_replay(mined, certify=False))
        certified.extend(_replay(mined, certify=True))
    plain_stats = _percentiles(plain)
    certified_stats = _percentiles(certified)
    added_ms = certified_stats["p50_ms"] - plain_stats["p50_ms"]
    return {
        "benchmark": "certify_overhead",
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
        "plain": plain_stats,
        "certified": certified_stats,
        "overhead_ms_p50": round(added_ms, 3),
        "overhead_frac_p50": round(added_ms / plain_stats["p50_ms"], 4),
        "ceiling_ms": OVERHEAD_CEILING_MS,
    }


def write_results(payload: dict, path: Path = RESULTS_PATH) -> None:
    """Persist the machine-readable benchmark artifact."""
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


@pytest.mark.perf_smoke
def test_certify_overhead_under_ceiling(report_table):
    """Certification-on must add < 5.5 ms to p50 epoch-processing latency."""
    payload = measure_certify_overhead()
    report_table(
        "certify_overhead",
        "\n".join(
            [
                "mode | p50 ms | p95 ms",
                f"plain | {payload['plain']['p50_ms']:.2f} | "
                f"{payload['plain']['p95_ms']:.2f}",
                f"certified | {payload['certified']['p50_ms']:.2f} | "
                f"{payload['certified']['p95_ms']:.2f}",
                f"overhead (p50): {payload['overhead_ms_p50']:.2f} ms, "
                f"{100 * payload['overhead_frac_p50']:.2f}% "
                f"(ceiling {OVERHEAD_CEILING_MS} ms)",
            ]
        ),
    )
    assert payload["overhead_ms_p50"] < OVERHEAD_CEILING_MS


def main() -> int:
    payload = measure_certify_overhead()
    write_results(payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    added_ms = payload["overhead_ms_p50"]
    print(
        f"\ncertification overhead: {added_ms:.2f} ms, "
        f"{100 * payload['overhead_frac_p50']:.2f}% "
        f"(ceiling {OVERHEAD_CEILING_MS} ms)"
    )
    return 0 if added_ms < OVERHEAD_CEILING_MS else 1


if __name__ == "__main__":
    sys.exit(main())
