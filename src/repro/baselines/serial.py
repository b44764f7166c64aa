"""The Serial baseline: today's DAG-based blockchains.

Concurrent blocks are processed sequentially in their deterministic total
order and the transactions inside each block are executed and committed
one by one.  There are no conflicts — and no concurrency: the cost is the
full serial execution latency, which Table IV and Figure 12 show dwarfing
everything else.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.schedule import SchemeResult, serial_schedule
from repro.txn.transaction import Transaction


class SerialScheduler:
    """Commits every transaction in id order, one at a time."""

    name = "serial"
    execution = "serial"
    supports_deltas = False
    supports_streaming = False
    tracer = None

    def schedule(self, transactions: Sequence[Transaction]) -> SchemeResult:
        """Return the identity schedule: all transactions, id order (it
        never aborts and has no CC sub-phases)."""
        order = [t.txid for t in sorted(transactions, key=lambda t: t.txid)]
        return SchemeResult(serial_schedule(order))
