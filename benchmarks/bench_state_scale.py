"""Extension — state fast-path scaling sweep (flat + batched trie seal).

Not a paper figure: measures the per-epoch commit cost of the flat
journaled state (:class:`repro.state.flat.FlatStateDB`, sealing each
epoch with one ``put_batch`` subtree rebuild) against the trie-backed
reference ``StateDB`` (one ``put`` per dirty key) as the account
population grows 10k -> 1M.  Both backends share one content-addressed
node store and must produce bit-identical roots every epoch — the bench
asserts it, so the speedup can never come from skipping authentication.

Each epoch writes a fixed *fraction* of the accounts (2%), not a fixed
count: the cost of a batched seal is governed by how much of the trie
the batch's paths share, and the union of ``W`` random paths over ``N``
leaves shares everything above ``log16(W)`` — so per-write node count
tracks ``log16(N/W)``.  Holding ``N/W`` constant is what makes the
per-write cost comparable across three decades of state size; a
fixed-count sweep would instead measure how prefix sharing decays and
report trie depth growth as a fast-path regression.

Emits ``benchmarks/results/BENCH_state_scale.json`` with per-size commit
latencies, per-write costs, and speedups.  Two headline gates:

* at 100k accounts the flat path's epoch commit must be >= 3x cheaper
  than the reference;
* the flat path's *per-write* commit cost must stay flat with scale —
  within 2x from the smallest to the largest population swept.

Run directly (``PYTHONPATH=src python benchmarks/bench_state_scale.py``,
add ``--full`` for the 1M-account point) to refresh the JSON, or via
pytest where the ``perf_smoke``-marked test asserts both gates.
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

from repro.state.flat import FlatStateDB
from repro.state.statedb import StateDB
from repro.storage.memstore import MemStore

RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_state_scale.json"

SMOKE_SIZES = (10_000, 100_000)
FULL_SIZES = (10_000, 100_000, 1_000_000)
GATED_SIZE = 100_000
WRITE_FRACTION = 50  # each epoch rewrites accounts/50 keys (2% of state)
ROUNDS = 3
WARMUP_ROUNDS = 1  # untimed; fills the decoded-node cache to steady state
SEED = 7

SPEEDUP_FLOOR = 3.0
FLATNESS_CEILING = 2.0


def _epoch_size(count: int) -> int:
    return max(200, count // WRITE_FRACTION)


def _timed_rounds(writes: int, rounds: int) -> int:
    # Short commits (small populations) are the noisiest measurements
    # and the cheapest to repeat; buy stability with extra rounds there.
    return max(rounds, 4_000 // writes)


def _epoch_writes(rng: random.Random, count: int) -> dict[str, int]:
    return {
        f"acct-{rng.randrange(count):07d}": rng.randrange(1, 1 << 30)
        for _ in range(_epoch_size(count))
    }


def _measure_size(count: int, rounds: int) -> dict:
    store = MemStore()
    flat = FlatStateDB(store=store)
    genesis = flat.seed(
        {f"acct-{i:07d}": 100 for i in range(count)}
    )
    oracle = StateDB(store=store, root=genesis)
    rng = random.Random(SEED)
    writes_total = _epoch_size(count)
    flat_best = float("inf")
    oracle_best = float("inf")
    for index in range(WARMUP_ROUNDS + _timed_rounds(writes_total, rounds)):
        writes = _epoch_writes(rng, count)
        flat.apply_writes(writes)
        start = time.perf_counter()
        flat_root = flat.commit()
        flat_elapsed = time.perf_counter() - start
        oracle.apply_writes(writes)
        start = time.perf_counter()
        oracle_root = oracle.commit()
        oracle_elapsed = time.perf_counter() - start
        if flat_root != oracle_root:
            raise AssertionError(
                f"flat/oracle roots diverged at {count} accounts: "
                f"{flat_root.hex()[:16]} != {oracle_root.hex()[:16]}"
            )
        if index >= WARMUP_ROUNDS:
            # Min-of-rounds: scheduler noise only ever adds time.
            flat_best = min(flat_best, flat_elapsed)
            oracle_best = min(oracle_best, oracle_elapsed)
    return {
        "accounts": count,
        "writes_per_epoch": writes_total,
        "flat_commit_s": round(flat_best, 6),
        "oracle_commit_s": round(oracle_best, 6),
        "flat_per_write_us": round(1e6 * flat_best / writes_total, 3),
        "oracle_per_write_us": round(1e6 * oracle_best / writes_total, 3),
        "speedup": round(oracle_best / flat_best, 3) if flat_best else 0.0,
        "roots_identical": True,
    }


def measure_state_scale(rounds: int = ROUNDS, full: bool = False) -> dict:
    """Sweep the account populations; return the BENCH json payload."""
    sizes = FULL_SIZES if full else SMOKE_SIZES
    sweep = [_measure_size(count, rounds) for count in sizes]
    gated = next(entry for entry in sweep if entry["accounts"] == GATED_SIZE)
    per_write = [entry["flat_per_write_us"] for entry in sweep]
    flatness = max(per_write) / min(per_write) if min(per_write) else 0.0
    return {
        "benchmark": "state_scale",
        "workload": {
            "write_fraction": f"1/{WRITE_FRACTION}",
            "rounds": rounds,
            "warmup_rounds": WARMUP_ROUNDS,
            "seed": SEED,
            "sizes": list(sizes),
        },
        "sweep": sweep,
        "gated_accounts": GATED_SIZE,
        "speedup_at_gated": gated["speedup"],
        "flat_per_write_ratio": round(flatness, 3),
    }


def write_results(payload: dict, path: Path = RESULTS_PATH) -> None:
    """Persist the machine-readable benchmark artifact."""
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


@pytest.mark.perf_smoke
def test_state_scale_gates(report_table):
    """Flat state must be >= 3x cheaper at 100k and cost-flat with scale."""
    payload = measure_state_scale()
    lines = ["accounts | flat us/write | oracle us/write | speedup"]
    for entry in payload["sweep"]:
        lines.append(
            f"{entry['accounts']:>8} | {entry['flat_per_write_us']:>13} | "
            f"{entry['oracle_per_write_us']:>15} | {entry['speedup']:.2f}x"
        )
    lines.append(f"flat per-write spread: {payload['flat_per_write_ratio']:.2f}x")
    report_table("state_scale", "\n".join(lines))
    speedup = payload["speedup_at_gated"]
    assert speedup >= SPEEDUP_FLOOR, (
        f"flat commit speedup {speedup:.2f}x at {GATED_SIZE} accounts is "
        f"below the {SPEEDUP_FLOOR}x floor"
    )
    flatness = payload["flat_per_write_ratio"]
    assert flatness <= FLATNESS_CEILING, (
        f"flat per-write cost varies {flatness:.2f}x across the sweep "
        f"(ceiling {FLATNESS_CEILING}x)"
    )


def main() -> int:
    full = "--full" in sys.argv[1:]
    payload = measure_state_scale(full=full)
    write_results(payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    speedup = payload["speedup_at_gated"]
    flatness = payload["flat_per_write_ratio"]
    print(
        f"\nflat commit speedup at {GATED_SIZE} accounts: {speedup:.2f}x "
        f"(floor {SPEEDUP_FLOOR}x); per-write spread {flatness:.2f}x "
        f"(ceiling {FLATNESS_CEILING}x)"
    )
    return 0 if speedup >= SPEEDUP_FLOOR and flatness <= FLATNESS_CEILING else 1


if __name__ == "__main__":
    sys.exit(main())
