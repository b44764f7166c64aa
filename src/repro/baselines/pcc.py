"""Pessimistic concurrency control (PEEP-style ordered locking).

The paper's Table II lists PEEP as the representative PCC scheme: every
transaction acquires locks on its accessed addresses in a deterministic
(sorted) order, which prevents deadlock and eliminates aborts entirely —
at the cost of lock-queue serialisation on contended addresses.

We model the steady-state effect of ordered locking rather than the lock
protocol itself: transactions are placed into commit *waves* in id order,
where a transaction must wait for every conflicting predecessor to finish
first (its wave is one past the latest wave holding a conflicting lock).
Non-conflicting transactions share a wave and run concurrently, exactly
as lock-compatible transactions execute in parallel under PEEP; read
locks are shared, write locks exclusive.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.schedule import SchemeResult, schedule_from_sequences
from repro.obs.tracer import Tracer, maybe_span
from repro.txn.rwset import Address
from repro.txn.transaction import Transaction


class PCCScheduler:
    """Ordered-locking schedule: zero aborts, wave-level concurrency.

    ``execution = "declared"`` tells the pipeline to schedule from the
    transactions' declared read/write sets without a speculative phase
    and to *execute* the commit waves in wave order (each wave observes
    the previous waves' writes): ordered locking requires a-priori lock
    sets (PEEP's standing assumption) and executes under locks rather
    than against a snapshot.
    """

    name = "pcc"
    execution = "declared"
    supports_deltas = False
    supports_streaming = False
    tracer: Tracer | None = None

    def schedule(self, transactions: Sequence[Transaction]) -> SchemeResult:
        """Assign each transaction the earliest wave its locks allow.

        ``last_write[a]`` is the latest wave writing address ``a`` and
        ``last_read[a]`` the latest wave reading it.  A transaction must
        start after every conflicting lock holder:

        * reading ``a``: after the last writer of ``a`` (shared read locks
          may coexist);
        * writing ``a``: after both the last writer and the last reader.
        """
        last_write: dict[Address, int] = {}
        last_read: dict[Address, int] = {}
        waves: dict[int, int] = {}
        with maybe_span(self.tracer, "pcc.lock_scheduling") as span:
            for txn in sorted(transactions, key=lambda t: t.txid):
                wave = 1
                for address in txn.read_set:
                    wave = max(wave, last_write.get(address, 0) + 1)
                for address in txn.write_set:
                    wave = max(
                        wave,
                        last_write.get(address, 0) + 1,
                        last_read.get(address, 0) + 1,
                    )
                waves[txn.txid] = wave
                for address in txn.read_set:
                    last_read[address] = max(last_read.get(address, 0), wave)
                for address in txn.write_set:
                    last_write[address] = max(last_write.get(address, 0), wave)
        return SchemeResult(
            schedule_from_sequences(waves), {"lock_scheduling": span.duration}
        )
