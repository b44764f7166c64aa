#!/usr/bin/env python
"""Perf smoke gate for the repo's perf-critical paths (< 60 s).

Four gates.  Ratio gates are compared against committed baselines by
*speedup ratio* (stable across machines) rather than absolute
milliseconds:

* **Flight-recorder overhead** — tracing-on and flight-ledger-on must
  each add < 5% to the p50 epoch-processing latency.  These are
  absolute ceilings, no baseline drift: a relative gap between
  interleaved replays on the same machine is already
  machine-independent.
* **Delta-CC abort drop** — operation-level CC must dissolve >= 40% of
  the baseline's ``unserializable_write`` aborts on SmallBank at skew
  0.9.  An abort-count ratio on a fixed seed is deterministic, so this
  gate has no tolerance band at all.
* **Flat-state commit** — the flat journaled state's batched epoch seal
  must be >= 3x cheaper than sequential trie puts at 100k accounts
  (ratio gate, baselined in ``BENCH_state_scale.json``), and its
  per-write cost must stay within 2x across the account sweep
  (absolute ceiling — the whole point of the fast path is that commit
  cost does not grow with state size).
* **Certifier overhead** — the proof-carrying schedule certifier
  (``PipelineConfig(certify=True)``) must add < 5% to the p50
  epoch-processing latency.  Same interleaved-replay design as the
  flight-recorder gate: absolute ceiling, no baseline drift.

The committed JSON artifacts are read-only baselines: a run rewrites
them with its fresh numbers only under ``--update``.

Usage::

    PYTHONPATH=src python benchmarks/run_perf_smoke.py [--update]

Equivalent pytest entry point::

    PYTHONPATH=src python -m pytest benchmarks -m perf_smoke -q
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from bench_obs_overhead import (  # noqa: E402
    OVERHEAD_CEILING as OBS_OVERHEAD_CEILING,
    RESULTS_PATH as OBS_RESULTS_PATH,
    measure_obs_overhead,
    write_results as write_obs_results,
)
from bench_delta_cc import (  # noqa: E402
    ABORT_DROP_FLOOR as DELTA_DROP_FLOOR,
    GATED_SKEW as DELTA_GATED_SKEW,
    RESULTS_PATH as DELTA_RESULTS_PATH,
    measure_delta_cc,
    write_results as write_delta_results,
)
from bench_certify_overhead import (  # noqa: E402
    OVERHEAD_CEILING as CERTIFY_OVERHEAD_CEILING,
    RESULTS_PATH as CERTIFY_RESULTS_PATH,
    measure_certify_overhead,
    write_results as write_certify_results,
)
from bench_state_scale import (  # noqa: E402
    FLATNESS_CEILING as STATE_FLATNESS_CEILING,
    GATED_SIZE as STATE_GATED_SIZE,
    RESULTS_PATH as STATE_RESULTS_PATH,
    SPEEDUP_FLOOR as STATE_SPEEDUP_FLOOR,
    measure_state_scale,
    write_results as write_state_results,
)

REGRESSION_TOLERANCE = 0.20
OBS_SMOKE_ROUNDS = 4
CERTIFY_SMOKE_ROUNDS = 4
DELTA_SMOKE_EPOCHS = 1
STATE_SMOKE_ROUNDS = 3


def load_baseline(path: Path) -> dict | None:
    """The committed benchmark artifact, or ``None`` when absent."""
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def _gate(
    name: str,
    speedup: float,
    floor: float,
    committed: float | None,
    tolerance: float,
    update_only: bool,
) -> bool:
    """Print one gate's verdict; returns True when it failed."""
    failed = False
    if speedup < floor:
        print(f"FAIL [{name}]: speedup below the {floor}x floor")
        failed = True
    if committed and not update_only:
        minimum = committed * (1.0 - tolerance)
        print(
            f"[{name}] committed baseline: {committed:.2f}x "
            f"(tolerated minimum {minimum:.2f}x)"
        )
        if speedup < minimum:
            print(
                f"FAIL [{name}]: regressed >{tolerance:.0%} against the "
                "committed baseline"
            )
            failed = True
    elif not committed:
        print(f"[{name}] no committed baseline found (--update writes one)")
    return failed


def main(argv: list[str]) -> int:
    update_only = "--update" in argv
    started = time.perf_counter()
    failed = False

    obs_payload = measure_obs_overhead(rounds=OBS_SMOKE_ROUNDS)
    obs_overhead = obs_payload["overhead_frac_p50"]
    print(
        f"flight-recorder overhead (p50): {100 * obs_overhead:.2f}% "
        f"(ceiling {100 * OBS_OVERHEAD_CEILING:.0f}%)"
    )
    if obs_overhead >= OBS_OVERHEAD_CEILING:
        print(
            f"FAIL [obs_overhead]: tracing adds >= "
            f"{OBS_OVERHEAD_CEILING:.0%} to p50 epoch latency"
        )
        failed = True
    ledger_overhead = obs_payload["ledger_overhead_frac_p50"]
    print(
        f"flight-ledger overhead (p50): {100 * ledger_overhead:.2f}% "
        f"(ceiling {100 * OBS_OVERHEAD_CEILING:.0f}%)"
    )
    if ledger_overhead >= OBS_OVERHEAD_CEILING:
        print(
            f"FAIL [ledger_overhead]: the flight ledger adds >= "
            f"{OBS_OVERHEAD_CEILING:.0%} to p50 epoch latency"
        )
        failed = True

    certify_payload = measure_certify_overhead(rounds=CERTIFY_SMOKE_ROUNDS)
    certify_overhead = certify_payload["overhead_frac_p50"]
    print(
        f"schedule-certifier overhead (p50): {100 * certify_overhead:.2f}% "
        f"(ceiling {100 * CERTIFY_OVERHEAD_CEILING:.0f}%)"
    )
    if certify_overhead >= CERTIFY_OVERHEAD_CEILING:
        print(
            f"FAIL [certify_overhead]: certification adds >= "
            f"{CERTIFY_OVERHEAD_CEILING:.0%} to p50 epoch latency"
        )
        failed = True

    delta_payload = measure_delta_cc(epochs=DELTA_SMOKE_EPOCHS)
    delta_drop = delta_payload["unserializable_drop_at_gated_skew"]
    print(
        f"delta-CC unserializable_write drop at skew {DELTA_GATED_SKEW}: "
        f"{delta_drop:.1%} (floor {DELTA_DROP_FLOOR:.0%})"
    )
    if delta_drop < DELTA_DROP_FLOOR:
        print(
            f"FAIL [delta_cc]: abort drop below the "
            f"{DELTA_DROP_FLOOR:.0%} floor"
        )
        failed = True

    state_baseline = load_baseline(STATE_RESULTS_PATH) or {}
    state_payload = measure_state_scale(rounds=STATE_SMOKE_ROUNDS)
    state_speedup = state_payload["speedup_at_gated"]
    print(
        f"flat-state commit speedup at {STATE_GATED_SIZE} accounts: "
        f"{state_speedup:.2f}x"
    )
    failed |= _gate(
        "state_scale",
        state_speedup,
        STATE_SPEEDUP_FLOOR,
        float(state_baseline.get("speedup_at_gated", 0.0)),
        REGRESSION_TOLERANCE,
        update_only,
    )
    state_flatness = state_payload["flat_per_write_ratio"]
    print(
        f"flat-state per-write spread across sweep: {state_flatness:.2f}x "
        f"(ceiling {STATE_FLATNESS_CEILING}x)"
    )
    if state_flatness > STATE_FLATNESS_CEILING:
        print(
            f"FAIL [state_scale]: per-write commit cost varies "
            f"{state_flatness:.2f}x across the account sweep"
        )
        failed = True

    elapsed = time.perf_counter() - started
    print(f"smoke wall-clock: {elapsed:.1f}s")
    if update_only:
        write_obs_results(obs_payload)
        write_certify_results(certify_payload)
        write_delta_results(delta_payload)
        write_state_results(state_payload)
        print(f"wrote {OBS_RESULTS_PATH}")
        print(f"wrote {CERTIFY_RESULTS_PATH}")
        print(f"wrote {DELTA_RESULTS_PATH}")
        print(f"wrote {STATE_RESULTS_PATH}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
