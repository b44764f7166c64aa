#!/usr/bin/env python
"""Perf smoke gate for the repo's perf-critical paths (< 60 s).

Three gates, each an absolute ceiling or floor on a quantity measured
in the same run (so no committed baseline can drift):

* **Flight-recorder overhead** — tracing-on and flight-ledger-on must
  each add < 5% to the p50 epoch-processing latency.  These are
  absolute ceilings, no baseline drift: a relative gap between
  interleaved replays on the same machine is already
  machine-independent.
* **Delta-CC abort drop** — operation-level CC must dissolve >= 40% of
  the baseline's ``unserializable_write`` aborts on SmallBank at skew
  0.9.  An abort-count ratio on a fixed seed is deterministic, so this
  gate has no tolerance band at all.
* **Certifier overhead** — the proof-carrying schedule certifier
  (``PipelineConfig(certify=True)``) must add < 5.5 ms to the p50
  epoch-processing latency: the 5% the gate allowed while the replay's
  plain epoch was ~110 ms, held in milliseconds now that the flat state
  made that epoch ~20 ms.  Same interleaved-replay design as the
  flight-recorder gate: absolute ceiling, no baseline drift.

The committed JSON artifacts are read-only baselines: a run rewrites
them with its fresh numbers only under ``--update``.

Usage::

    PYTHONPATH=src python benchmarks/run_perf_smoke.py [--update]

Equivalent pytest entry point::

    PYTHONPATH=src python -m pytest benchmarks -m perf_smoke -q
"""

from __future__ import annotations

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
    OVERHEAD_CEILING_MS as CERTIFY_OVERHEAD_CEILING_MS,
    RESULTS_PATH as CERTIFY_RESULTS_PATH,
    measure_certify_overhead,
    write_results as write_certify_results,
)

OBS_SMOKE_ROUNDS = 16
CERTIFY_SMOKE_ROUNDS = 16
DELTA_SMOKE_EPOCHS = 1


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
    certify_added_ms = certify_payload["overhead_ms_p50"]
    print(
        f"schedule-certifier overhead (p50): {certify_added_ms:.2f} ms, "
        f"{100 * certify_payload['overhead_frac_p50']:.2f}% "
        f"(ceiling {CERTIFY_OVERHEAD_CEILING_MS} ms)"
    )
    if certify_added_ms >= CERTIFY_OVERHEAD_CEILING_MS:
        print(
            f"FAIL [certify_overhead]: certification adds >= "
            f"{CERTIFY_OVERHEAD_CEILING_MS} ms to p50 epoch latency"
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

    elapsed = time.perf_counter() - started
    print(f"smoke wall-clock: {elapsed:.1f}s")
    if update_only:
        write_obs_results(obs_payload)
        write_certify_results(certify_payload)
        write_delta_results(delta_payload)
        print(f"wrote {OBS_RESULTS_PATH}")
        print(f"wrote {CERTIFY_RESULTS_PATH}")
        print(f"wrote {DELTA_RESULTS_PATH}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
