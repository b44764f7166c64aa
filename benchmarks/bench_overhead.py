"""Extension — the cost of leaving observability and certification on.

Not a paper figure: proves the flight recorder (tracer, flight ledger)
and the proof-carrying schedule certifier are cheap enough to run in
production.  Each gate pre-mines one epoch sequence, then replays it
through identically-seeded fresh full nodes, one per arm, interleaved
round by round so machine drift hits every arm alike.  The headline is
the gap between an instrumented arm's p50 epoch-processing latency and
the bare arm's:

* tracing-on and ledger-on must each add < ``OVERHEAD_CEILING`` (5%);
* certification-on (``PipelineConfig(certify=True)``, every epoch's
  conflict graph rebuilt and checked from scratch) must add
  < ``CERTIFY_CEILING_MS`` (5.5 ms).

Each gate writes its payload to ``benchmarks/results/smoke/<gate>.json``.
"""

from __future__ import annotations

import statistics
import time
from collections.abc import Callable

import pytest

from repro.dag import EpochCoordinator, Mempool, ParallelChains, PoWParams
from repro.net import NodeSpec, build_node
from repro.node import PipelineConfig
from repro.obs import FlightLedger, Tracer
from repro.workload import SmallBankConfig, SmallBankWorkload

SKEW = 0.6
OMEGA = 4
BLOCK_SIZE = 120
ACCOUNTS = 2_000
OBS_SEED = 29
CERTIFY_SEED = 31
EPOCHS = 3
ROUNDS = 20  # ~0.1 s a replay: the time 6 rounds took on the trie-walking state
POW_BITS = 4

OVERHEAD_CEILING = 0.05
# 5% of the ~110 ms plain p50 this replay measured on a 2-core x86 guest
# while ``StateDB()`` walked the trie on every read and re-hashed a path
# on every write.  The flat state cut that epoch to ~20 ms and left the
# certifier's own ~4-5 ms where it was, so the budget is held in
# milliseconds rather than as a share of the epoch.
CERTIFY_CEILING_MS = 5.5


def _spec(seed: int, certify: bool = False) -> NodeSpec:
    return NodeSpec(
        chain_count=OMEGA,
        workload=SmallBankConfig(account_count=ACCOUNTS, skew=SKEW, seed=seed),
        pipeline=PipelineConfig(certify=certify),
        pow=PoWParams(POW_BITS),
    )


def _premine(spec: NodeSpec) -> list[list]:
    """Mine the shared epoch sequence once (off the measured path).

    Block headers chain state roots, so mining drives a throwaway node
    forward; every replay node is seeded identically and reproduces the
    same roots, making the pre-mined blocks valid for all of them.
    """
    driver = build_node(spec)
    chains = ParallelChains(chain_count=OMEGA, pow_params=driver.chains.pow_params)
    coordinator = EpochCoordinator(chains=chains, miners=["m0", "m1"], block_size=BLOCK_SIZE)
    pool = Mempool()
    pool.submit_many(
        SmallBankWorkload(spec.workload).generate(EPOCHS * OMEGA * BLOCK_SIZE + 200)
    )
    mined = []
    with driver:
        for _ in range(EPOCHS):
            blocks = coordinator.mine_epoch(pool, state_root=driver.state_root)
            driver.receive_epoch(blocks)
            mined.append(blocks)
    return mined


def _replay(mined: list[list], **build_node_kwargs) -> list[float]:
    """Per-epoch processing seconds through one fresh node.

    Raises if an instrument the node was given recorded nothing, or a
    certified epoch was rejected: a gate over a dead arm measures nothing.
    """
    node = build_node(**build_node_kwargs)
    samples = []
    with node:
        for blocks in mined:
            start = time.perf_counter()
            node.receive_epoch(blocks)
            samples.append(time.perf_counter() - start)
        if node.tracer is not None and len(node.tracer) == 0:
            raise RuntimeError("traced replay recorded no spans")
        if node.ledger is not None and node.ledger.recorded == 0:
            raise RuntimeError("ledger replay recorded no events")
        if node.pipeline.config.certify:
            certificates = [report.certificate for report in node.reports]
            if not certificates or None in certificates:
                raise RuntimeError("certified replay produced no certificates")
            if not all(certificate.ok for certificate in certificates):
                raise RuntimeError("certified replay rejected an epoch")
    return samples


def _percentiles(samples: list[float]) -> dict[str, float]:
    ordered = sorted(samples)
    rank = max(0, round(0.95 * (len(ordered) - 1)))
    return {
        "p50_ms": statistics.median(ordered) * 1e3,
        "p95_ms": ordered[rank] * 1e3,
    }


def _interleave(
    mined: list[list], arms: dict[str, Callable[[], dict]], warmup: str
) -> dict[str, dict[str, float]]:
    """Replay every arm once per round, in ``arms`` order; p50/p95 per arm.

    Each arm is a factory of ``build_node`` keyword arguments, called
    once per replay so no instrument is shared between two nodes.  One
    unmeasured replay of the ``warmup`` arm primes caches and pools.
    """
    _replay(mined, **arms[warmup]())
    samples: dict[str, list[float]] = {name: [] for name in arms}
    for _ in range(ROUNDS):
        for name, arm in arms.items():
            samples[name].extend(_replay(mined, **arm()))
    return {name: _percentiles(arm_samples) for name, arm_samples in samples.items()}


def _workload(seed: int) -> dict:
    return {
        "generator": "smallbank",
        "skew": SKEW,
        "omega": OMEGA,
        "block_size": BLOCK_SIZE,
        "accounts": ACCOUNTS,
        "seed": seed,
        "epochs": EPOCHS,
    }


def measure_obs_overhead() -> dict:
    """Replay bare/traced/ledger nodes interleaved; return the payload."""
    spec = _spec(OBS_SEED)
    stats = _interleave(
        _premine(spec),
        {
            "bare": lambda: {"spec": spec},
            "traced": lambda: {"spec": spec, "tracer": Tracer()},
            "ledger": lambda: {"spec": spec, "ledger": FlightLedger()},
        },
        warmup="traced",
    )
    bare_p50 = stats["bare"]["p50_ms"]
    return {
        "benchmark": "obs_overhead",
        "workload": _workload(OBS_SEED),
        "rounds": ROUNDS,
        "untraced": stats["bare"],
        "traced": stats["traced"],
        "ledger": stats["ledger"],
        "overhead_frac_p50": round((stats["traced"]["p50_ms"] - bare_p50) / bare_p50, 4),
        "ledger_overhead_frac_p50": round((stats["ledger"]["p50_ms"] - bare_p50) / bare_p50, 4),
        "ceiling_frac": OVERHEAD_CEILING,
    }


def measure_certify_overhead() -> dict:
    """Replay plain and certified nodes interleaved; return the payload."""
    plain, certified = _spec(CERTIFY_SEED), _spec(CERTIFY_SEED, certify=True)
    stats = _interleave(
        _premine(plain),
        {"plain": lambda: {"spec": plain}, "certified": lambda: {"spec": certified}},
        warmup="certified",
    )
    added_ms = stats["certified"]["p50_ms"] - stats["plain"]["p50_ms"]
    return {
        "benchmark": "certify_overhead",
        "workload": _workload(CERTIFY_SEED),
        "rounds": ROUNDS,
        "plain": stats["plain"],
        "certified": stats["certified"],
        "overhead_ms_p50": round(added_ms, 3),
        "overhead_frac_p50": round(added_ms / stats["plain"]["p50_ms"], 4),
        "ceiling_ms": CERTIFY_CEILING_MS,
    }


def _latency_rows(payload: dict, arms: tuple[str, ...]) -> list[str]:
    return ["mode | p50 ms | p95 ms"] + [
        f"{arm} | {payload[arm]['p50_ms']:.2f} | {payload[arm]['p95_ms']:.2f}" for arm in arms
    ]


@pytest.mark.perf_smoke
def test_obs_overhead_under_ceiling(report_table, record_smoke):
    """Tracing-on and ledger-on must each add < 5% to p50 epoch latency."""
    payload = measure_obs_overhead()
    record_smoke("obs_overhead", payload)
    report_table(
        "obs_overhead",
        "\n".join(
            _latency_rows(payload, ("untraced", "traced", "ledger"))
            + [
                f"tracing overhead (p50): {100 * payload['overhead_frac_p50']:.2f}%, "
                f"ledger overhead (p50): {100 * payload['ledger_overhead_frac_p50']:.2f}% "
                f"(ceiling {100 * OVERHEAD_CEILING:.0f}% each)"
            ]
        ),
    )
    assert payload["overhead_frac_p50"] < OVERHEAD_CEILING
    assert payload["ledger_overhead_frac_p50"] < OVERHEAD_CEILING


@pytest.mark.perf_smoke
def test_certify_overhead_under_ceiling(report_table, record_smoke):
    """Certification-on must add < 5.5 ms to p50 epoch-processing latency."""
    payload = measure_certify_overhead()
    record_smoke("certify_overhead", payload)
    report_table(
        "certify_overhead",
        "\n".join(
            _latency_rows(payload, ("plain", "certified"))
            + [
                f"overhead (p50): {payload['overhead_ms_p50']:.2f} ms, "
                f"{100 * payload['overhead_frac_p50']:.2f}% "
                f"(ceiling {CERTIFY_CEILING_MS} ms)"
            ]
        ),
    )
    assert payload["overhead_ms_p50"] < CERTIFY_CEILING_MS
