#!/usr/bin/env python
"""Side-by-side comparison of every concurrency-control scheme.

Runs Serial, OCC, CG, and Nezha over identical SmallBank epochs at three
contention levels, printing what each one commits, aborts, and costs —
a miniature of the paper's whole evaluation in one table.

Run:  python examples/scheme_comparison.py
"""

from __future__ import annotations

from repro.analysis.certify import certify_epoch
from repro.bench import SCHEMES, make_scheme, run_scheme, smallbank_epoch

SKEWS = (0.0, 0.6, 1.0)
OMEGA = 4
BLOCK_SIZE = 60


def main() -> None:
    header = (
        f"{'skew':>5} {'scheme':<16} {'committed':>9} {'aborted':>7} "
        f"{'abort %':>8} {'groups':>6} {'latency (ms)':>12}  serializable?"
    )
    print(header)
    print("-" * len(header))
    for skew in SKEWS:
        transactions = smallbank_epoch(OMEGA, BLOCK_SIZE, skew=skew, seed=99)
        rwsets = {t.txid: t.rwset for t in transactions}
        for scheme_name in SCHEMES:
            scheme = make_scheme(scheme_name, cycle_budget=200_000)
            run = run_scheme(scheme, transactions)
            if run.failed:
                print(f"{skew:>5} {scheme_name:<16} "
                      f"{'FAILED (cycle budget, the paper reports OOM)':>40}")
                continue
            schedule = run.schedule
            if scheme.execution == "speculative":
                certificate = certify_epoch(rwsets, schedule, scheme=scheme_name)
                verdict = "yes" if certificate.ok else f"NO ({certificate.summary()})"
            else:
                # Serial and PCC re-execute against live state (in id
                # order / in lock waves): there is no snapshot schedule
                # to certify.
                verdict = f"re-executed ({scheme.execution})"
            print(
                f"{skew:>5} {scheme_name:<16} {schedule.committed_count:>9} "
                f"{schedule.aborted_count:>7} {100 * schedule.abort_rate:>7.1f}% "
                f"{len(schedule.groups):>6} {run.total_seconds * 1000:>12.2f}  "
                f"{verdict}"
            )
        print()


if __name__ == "__main__":
    main()
