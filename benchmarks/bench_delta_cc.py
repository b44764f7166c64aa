"""Extension — operation-level CC (commutative delta writes) skew sweep.

Not a paper figure: measures how many of the baseline pipeline's
``unserializable_write`` aborts the delta-CC path dissolves, across the
contention sweep the paper uses for SmallBank.  Hot-key read-modify-
writes (``updateSavings``, ``updateBalance``, ``sendPayment``'s deposit)
are statically proven commutative, promoted to delta units, and folded
at commit — so the write-write conflicts that dominate under skew simply
stop being conflicts.

Emits ``benchmarks/results/BENCH_delta_cc.json`` with per-skew abort
counts, committed counts, and commuted-unit counts for both modes.  The
headline gate: at skew 0.9 the ``unserializable_write`` abort count must
drop by at least 40% versus the baseline run of the same epochs.

Run directly (``PYTHONPATH=src python benchmarks/bench_delta_cc.py``)
to refresh the JSON, or via pytest where the ``perf_smoke``-marked test
asserts the abort-drop floor.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.net import Cluster, ClusterConfig, NodeSpec
from repro.node import PipelineConfig
from repro.workload import SmallBankConfig

RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_delta_cc.json"

SKEWS = (0.0, 0.6, 0.9, 0.99)
GATED_SKEW = 0.9
OMEGA = 8
BLOCK_SIZE = 150
ACCOUNT_COUNT = 10_000
SEED = 42
EPOCHS = 2

UNSERIALIZABLE = "unserializable_write"
ABORT_DROP_FLOOR = 0.40


def _run_cluster(skew: float, delta_cc: bool, epochs: int) -> dict:
    spec = NodeSpec(
        chain_count=OMEGA,
        workload=SmallBankConfig(account_count=ACCOUNT_COUNT, skew=skew, seed=SEED),
        pipeline=PipelineConfig(delta_cc=delta_cc),
    )
    with Cluster(spec, ClusterConfig(block_size=BLOCK_SIZE)) as cluster:
        cluster.feed_client(OMEGA * BLOCK_SIZE * epochs)
        run = cluster.run_epochs(epochs)
    reports = [outcome.report for outcome in run.outcomes]
    return {
        "committed": run.committed,
        "aborted": sum(report.aborted for report in reports),
        "unserializable_write": sum(
            report.abort_reasons.get(UNSERIALIZABLE, 0) for report in reports
        ),
        "delta_overflow": sum(
            report.abort_reasons.get("delta_overflow", 0) for report in reports
        ),
        "delta_commuted": sum(report.delta_commuted for report in reports),
    }


def measure_delta_cc(epochs: int = EPOCHS) -> dict:
    """Sweep the skews in both modes; return the BENCH json payload."""
    sweep = []
    for skew in SKEWS:
        baseline = _run_cluster(skew, delta_cc=False, epochs=epochs)
        delta = _run_cluster(skew, delta_cc=True, epochs=epochs)
        drop = (
            1.0 - delta[UNSERIALIZABLE] / baseline[UNSERIALIZABLE]
            if baseline[UNSERIALIZABLE]
            else 0.0
        )
        sweep.append(
            {
                "skew": skew,
                "baseline": baseline,
                "delta_cc": delta,
                "unserializable_drop": round(drop, 4),
            }
        )
    gated = next(entry for entry in sweep if entry["skew"] == GATED_SKEW)
    return {
        "benchmark": "delta_cc",
        "workload": {
            "generator": "smallbank",
            "account_count": ACCOUNT_COUNT,
            "omega": OMEGA,
            "block_size": BLOCK_SIZE,
            "seed": SEED,
            "epochs": epochs,
        },
        "sweep": sweep,
        "gated_skew": GATED_SKEW,
        "unserializable_drop_at_gated_skew": gated["unserializable_drop"],
    }


def write_results(payload: dict, path: Path = RESULTS_PATH) -> None:
    """Persist the machine-readable benchmark artifact."""
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


@pytest.mark.perf_smoke
def test_delta_cc_abort_drop(report_table):
    """Delta-CC must dissolve >= 40% of hot-key write aborts at skew 0.9."""
    payload = measure_delta_cc()
    lines = [
        "skew | uw base | uw delta | drop | committed base->delta | commuted"
    ]
    for entry in payload["sweep"]:
        base, delta = entry["baseline"], entry["delta_cc"]
        lines.append(
            f"{entry['skew']} | {base[UNSERIALIZABLE]} | "
            f"{delta[UNSERIALIZABLE]} | {entry['unserializable_drop']:.1%} | "
            f"{base['committed']}->{delta['committed']} | "
            f"{delta['delta_commuted']}"
        )
    report_table("delta_cc", "\n".join(lines))
    drop = payload["unserializable_drop_at_gated_skew"]
    assert drop >= ABORT_DROP_FLOOR, (
        f"unserializable_write drop {drop:.1%} at skew {GATED_SKEW} is below "
        f"the {ABORT_DROP_FLOOR:.0%} floor"
    )


def main() -> int:
    payload = measure_delta_cc()
    write_results(payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    drop = payload["unserializable_drop_at_gated_skew"]
    print(
        f"\nunserializable_write drop at skew {GATED_SKEW}: {drop:.1%} "
        f"(floor {ABORT_DROP_FLOOR:.0%})"
    )
    return 0 if drop >= ABORT_DROP_FLOOR else 1


if __name__ == "__main__":
    sys.exit(main())
