"""Ablation — cost and necessity of the safety-validation pass.

DESIGN.md documents that Algorithm 2 as printed can miss rare corner
cases; our implementation adds a linear validation pass.  This ablation
measures (a) the latency overhead of that pass and (b) how many invariant
violations it actually catches across contention levels — demonstrating
it is both cheap and necessary.
"""

from __future__ import annotations

from repro.bench import render_table, scaled, smallbank_epoch
from repro.analysis.certify import certify_epoch
from repro.core import NezhaConfig, NezhaScheduler

SKEWS = (0.2, 0.6, 1.0)
OMEGA = 4
BLOCK_SIZE = 100
ROUNDS = 3


def sweep():
    rows = []
    caught_total = 0
    for skew in SKEWS:
        with_validation = NezhaScheduler(NezhaConfig(enable_validation=True))
        without_validation = NezhaScheduler(
            NezhaConfig(enable_validation=False, enable_reorder=False)
        )
        overheads = []
        violations = 0
        for round_no in range(ROUNDS):
            transactions = smallbank_epoch(
                OMEGA, scaled(BLOCK_SIZE), skew=skew, seed=500 + round_no
            )
            phases = with_validation.schedule(transactions).phase_seconds()
            overheads.append(
                phases["validation"] / max(sum(phases.values()), 1e-9)
            )
            raw = without_validation.schedule(transactions)
            certificate = certify_epoch(
                {t.txid: t.rwset for t in transactions}, raw.schedule
            )
            violations += sum(certificate.finding_counts.values())
        caught_total += violations
        rows.append(
            [
                skew,
                f"{100 * sum(overheads) / len(overheads):.1f}%",
                violations,
            ]
        )
    return rows, caught_total


def test_ablation_validation_pass(benchmark, report_table):
    rows, caught_total = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = render_table(
        "Ablation: safety-validation pass",
        ["skew", "validation share of CC time", "violations caught (no-validate run)"],
        rows,
        note="violations = invariant breaches Algorithm 2 alone would commit",
    )
    report_table("ablation_validation", table)
    # The pass stays a modest fraction of total CC time.
    for row in rows:
        assert float(row[1].rstrip("%")) < 60.0
    # And it is not vacuous: under contention it catches real violations.
    assert caught_total > 0


def test_validation_latency_point(benchmark):
    from repro.core import (
        dense_acg_from_transactions,
        divide_ranks_dense,
        sort_transactions_dense,
        validate_sort_dense,
    )

    transactions = smallbank_epoch(OMEGA, scaled(BLOCK_SIZE), skew=1.0, seed=502)
    dense = dense_acg_from_transactions(transactions)
    order = divide_ranks_dense(dense)

    def run_validation():
        state = sort_transactions_dense(dense, order)
        return validate_sort_dense(dense, state, enable_reorder=True)

    benchmark(run_validation)
