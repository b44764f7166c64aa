"""Extension — operation-level CC (commutative delta writes) skew sweep.

Not a paper figure: measures how many of the baseline pipeline's
``unserializable_write`` aborts the delta-CC path dissolves, across the
contention sweep the paper uses for SmallBank.  Hot-key read-modify-
writes (``updateSavings``, ``updateBalance``, ``sendPayment``'s deposit)
are statically proven commutative, promoted to delta units, and folded
at commit — so the write-write conflicts that dominate under skew simply
stop being conflicts.

The gate writes per-skew abort counts, committed counts, and
commuted-unit counts for both modes to
``benchmarks/results/smoke/delta_cc.json`` and asserts the headline: at
skew 0.9 the ``unserializable_write`` abort count must drop by at least
40% versus the baseline run of the same epochs.
"""

from __future__ import annotations

import pytest

from repro.net import Cluster, ClusterConfig, NodeSpec
from repro.node import PipelineConfig
from repro.workload import SmallBankConfig

SKEWS = (0.0, 0.6, 0.9, 0.99)
GATED_SKEW = 0.9
OMEGA = 8
BLOCK_SIZE = 150
ACCOUNT_COUNT = 10_000
SEED = 42
EPOCHS = 2

UNSERIALIZABLE = "unserializable_write"
ABORT_DROP_FLOOR = 0.40


def _run_cluster(skew: float, delta_cc: bool) -> dict:
    spec = NodeSpec(
        chain_count=OMEGA,
        workload=SmallBankConfig(account_count=ACCOUNT_COUNT, skew=skew, seed=SEED),
        pipeline=PipelineConfig(delta_cc=delta_cc),
    )
    with Cluster(spec, ClusterConfig(block_size=BLOCK_SIZE)) as cluster:
        cluster.feed_client(OMEGA * BLOCK_SIZE * EPOCHS)
        run = cluster.run_epochs(EPOCHS)
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


def measure_delta_cc() -> dict:
    """Sweep the skews in both modes; return the gate's payload."""
    sweep = []
    for skew in SKEWS:
        baseline = _run_cluster(skew, delta_cc=False)
        delta = _run_cluster(skew, delta_cc=True)
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
            "epochs": EPOCHS,
        },
        "sweep": sweep,
        "gated_skew": GATED_SKEW,
        "unserializable_drop_at_gated_skew": gated["unserializable_drop"],
    }


@pytest.mark.perf_smoke
def test_delta_cc_abort_drop(report_table, record_smoke):
    """Delta-CC must dissolve >= 40% of hot-key write aborts at skew 0.9."""
    payload = measure_delta_cc()
    record_smoke("delta_cc", payload)
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

