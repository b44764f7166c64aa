"""Speculative execution results.

In the paper's workflow (Section III-B) every node simulates the execution
of all transactions from an epoch's concurrent blocks against the previous
epoch's state snapshot.  The simulation yields, per transaction, the
addresses and values read and written; concurrency control consumes only
these summaries.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Mapping

from repro.txn.rwset import Address, RWSet
from repro.txn.transaction import Transaction


class SimulationStatus(enum.Enum):
    """Outcome of one speculative execution."""

    SUCCESS = "success"
    REVERTED = "reverted"


@dataclass(frozen=True)
class SimulationResult:
    """Read/write summary produced by speculatively executing a transaction.

    Attributes
    ----------
    transaction:
        The executed transaction (without an attached rwset).
    rwset:
        Observed reads and produced writes.
    status:
        Whether the speculative run succeeded; reverted transactions are
        excluded from concurrency control and counted separately.
    gas_used:
        Gas consumed by the VM (0 for synthetic workloads).
    return_value:
        Contract return value, if any.
    """

    transaction: Transaction
    rwset: RWSet
    status: SimulationStatus = SimulationStatus.SUCCESS
    gas_used: int = 0
    return_value: Any = None
    error: str | None = None

    @property
    def txid(self) -> int:
        """Id of the simulated transaction."""
        return self.transaction.txid

    @property
    def ok(self) -> bool:
        """True when the speculative run completed without error."""
        return self.status is SimulationStatus.SUCCESS

    def as_transaction(self) -> Transaction:
        """Return the transaction with the observed rwset attached."""
        return self.transaction.with_rwset(self.rwset)


@dataclass(frozen=True)
class SimulationBatch:
    """All simulation results for one epoch, in transaction-id order.

    Whoever builds a batch passes ``results`` already sorted by txid
    (``execute_batch``, the streaming reconciliation and
    ``batch_from_transactions`` all do); nothing here re-sorts.
    """

    results: tuple[SimulationResult, ...] = ()
    snapshot_root: bytes = b""

    @cached_property
    def _successful(self) -> tuple[SimulationResult, ...]:
        return tuple(r for r in self.results if r.ok)

    def successful(self) -> tuple[SimulationResult, ...]:
        """Results whose speculative execution succeeded, in id order."""
        return self._successful

    def transactions(self) -> list[Transaction]:
        """Successful transactions with rwsets attached, in id order."""
        return [r.as_transaction() for r in self._successful]

    def write_values(self) -> dict[int, Mapping[Address, Any]]:
        """Map txid -> write values, for the commitment phase."""
        return {r.txid: r.rwset.writes for r in self._successful}

    def delta_values(self) -> dict[int, Mapping[Address, int]]:
        """Map txid -> commutative delta amounts, for the commitment fold."""
        return {r.txid: r.rwset.deltas for r in self._successful}

    @property
    def failed_count(self) -> int:
        """Number of reverted or failed speculative executions."""
        return len(self.results) - len(self._successful)


def batch_from_transactions(
    transactions: list[Transaction], snapshot_root: bytes = b""
) -> SimulationBatch:
    """Wrap pre-summarised transactions (synthetic workloads) as a batch."""
    results = tuple(
        SimulationResult(transaction=t, rwset=t.rwset)
        for t in sorted(transactions, key=lambda t: t.txid)
    )
    return SimulationBatch(results=results, snapshot_root=snapshot_root)
