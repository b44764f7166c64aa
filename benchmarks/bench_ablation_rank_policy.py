"""Ablation — Algorithm 1's cycle-breaking policy.

The paper prioritises the address with the most dependencies (maximum
out-degree) when cycles force a choice, arguing its sorting result
affects the most other addresses.  This ablation compares that policy
against breaking ties by address id alone and by unit count, measuring
abort rate and rank-division latency under contention.
"""

from __future__ import annotations

from repro.bench import render_table, scaled, smallbank_epoch
from repro.core import NezhaConfig, NezhaScheduler, RankPolicy

SKEWS = (0.7, 0.9, 1.1)
OMEGA = 2
BLOCK_SIZE = 150
ROUNDS = 3


def sweep():
    rows = []
    means: dict[RankPolicy, list[float]] = {policy: [] for policy in RankPolicy}
    for skew in SKEWS:
        for policy in RankPolicy:
            scheduler = NezhaScheduler(NezhaConfig(rank_policy=policy))
            rates = []
            latency = []
            for round_no in range(ROUNDS):
                transactions = smallbank_epoch(
                    OMEGA, scaled(BLOCK_SIZE), skew=skew, seed=300 + round_no
                )
                result = scheduler.schedule(transactions)
                rates.append(result.schedule.abort_rate)
                latency.append(result.phase_seconds()["rank_division"])
            mean_rate = sum(rates) / len(rates)
            means[policy].append(mean_rate)
            rows.append(
                [
                    skew,
                    policy.value,
                    f"{100 * mean_rate:.2f}",
                    f"{1000 * sum(latency) / len(latency):.2f}",
                ]
            )
    return rows, means


def test_ablation_rank_policy(benchmark, report_table):
    rows, means = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = render_table(
        "Ablation: Algorithm 1 cycle-breaking policy",
        ["skew", "policy", "abort rate (%)", "rank division (ms)"],
        rows,
        note="paper default is max-out-degree (most dependencies first)",
    )
    report_table("ablation_rank_policy", table)
    # Every policy yields a valid scheduler; the paper's default should
    # never be drastically worse than the alternatives.
    default_mean = sum(means[RankPolicy.MAX_OUT_DEGREE]) / len(SKEWS)
    for policy in RankPolicy:
        other_mean = sum(means[policy]) / len(SKEWS)
        assert default_mean <= other_mean * 1.5 + 0.01


def test_rank_policies_all_serializable(benchmark):
    from repro.analysis.certify import certify_epoch

    transactions = smallbank_epoch(OMEGA, scaled(BLOCK_SIZE), skew=1.1, seed=301)

    def check_all():
        for policy in RankPolicy:
            result = NezhaScheduler(NezhaConfig(rank_policy=policy)).schedule(
                transactions
            )
            certificate = certify_epoch(
                {t.txid: t.rwset for t in transactions}, result.schedule
            )
            assert certificate.ok, certificate.summary()
        return True

    assert benchmark.pedantic(check_all, rounds=1, iterations=1)
