"""The Serial baseline: today's DAG-based blockchains.

Concurrent blocks are processed sequentially in their deterministic total
order and the transactions inside each block are executed and committed
one by one.  There are no conflicts — and no concurrency: the cost is the
full serial execution latency, which Table IV and Figure 12 show dwarfing
everything else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.schedule import Schedule, SchemeResult, serial_schedule
from repro.txn.transaction import Transaction


@dataclass
class SerialResult(SchemeResult):
    """Schedule produced by the serial scheme (never aborts, no CC phases)."""

    schedule: Schedule


class SerialScheduler:
    """Commits every transaction in id order, one at a time."""

    name = "serial"
    execution = "serial"
    supports_deltas = False
    supports_streaming = False
    tracer = None

    def schedule(self, transactions: Sequence[Transaction]) -> SerialResult:
        """Return the identity schedule: all transactions, id order."""
        order = [t.txid for t in sorted(transactions, key=lambda t: t.txid)]
        return SerialResult(schedule=serial_schedule(order))
