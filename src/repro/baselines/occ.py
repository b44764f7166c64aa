"""Plain optimistic concurrency control (Fabric-style baseline).

Transactions are validated in id order against the writes of transactions
already admitted from the same batch: a transaction whose read set
intersects an earlier-admitted write set observed a stale snapshot value
and is aborted.  No scheduling information is built, which makes the
scheme cheap but — as the paper stresses — prone to very high abort rates
under contention (Fabric exceeds 40%).
"""

from __future__ import annotations

from typing import Sequence

from repro.core.schedule import SchemeResult, serial_schedule
from repro.obs.tracer import Tracer, maybe_span
from repro.txn.rwset import Address
from repro.txn.transaction import Transaction


class OCCScheduler:
    """First-committer-wins validation in transaction-id order."""

    name = "occ"
    execution = "speculative"
    supports_deltas = False
    supports_streaming = False
    tracer: Tracer | None = None

    def schedule(self, transactions: Sequence[Transaction]) -> SchemeResult:
        """Validate the batch and return a serial schedule of survivors."""
        committed: list[int] = []
        aborted: list[int] = []
        written: set[Address] = set()
        with maybe_span(self.tracer, "occ.validation") as span:
            for txn in sorted(transactions, key=lambda t: t.txid):
                if txn.read_set & written:
                    aborted.append(txn.txid)
                    continue
                committed.append(txn.txid)
                written.update(txn.write_set)
        return SchemeResult(
            serial_schedule(committed, aborted=aborted),
            {"validation": span.duration},
        )
