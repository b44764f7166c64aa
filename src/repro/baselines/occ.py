"""Plain optimistic concurrency control (Fabric-style baseline).

Transactions are validated in id order against the writes of transactions
already admitted from the same batch: a transaction whose read set
intersects an earlier-admitted write set observed a stale snapshot value
and is aborted.  No scheduling information is built, which makes the
scheme cheap but — as the paper stresses — prone to very high abort rates
under contention (Fabric exceeds 40%).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

from repro.core.schedule import Schedule, SchemeResult, serial_schedule
from repro.txn.rwset import Address
from repro.txn.transaction import Transaction


@dataclass
class OCCResult(SchemeResult):
    """Schedule plus validation timing from one OCC run."""

    schedule: Schedule
    validation_seconds: float = 0.0

    def phase_seconds(self) -> dict[str, float]:
        """Phase name -> seconds, matching the other schemes' results."""
        return {"validation": self.validation_seconds}


class OCCScheduler:
    """First-committer-wins validation in transaction-id order."""

    name = "occ"
    execution = "speculative"
    supports_deltas = False
    supports_streaming = False
    tracer = None

    def schedule(self, transactions: Sequence[Transaction]) -> OCCResult:
        """Validate the batch and return a serial schedule of survivors."""
        start = time.perf_counter()
        committed: list[int] = []
        aborted: list[int] = []
        written: set[Address] = set()
        for txn in sorted(transactions, key=lambda t: t.txid):
            if txn.read_set & written:
                aborted.append(txn.txid)
                continue
            committed.append(txn.txid)
            written.update(txn.write_set)
        elapsed = time.perf_counter() - start
        return OCCResult(
            schedule=serial_schedule(committed, aborted=aborted),
            validation_seconds=elapsed,
        )
