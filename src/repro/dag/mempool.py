"""Transaction mempool.

Miners draw block bodies from here.  FIFO with id-based deduplication;
transactions taken by one miner in an epoch are marked in-flight so the
same transaction is not packed into two concurrent blocks (the paper
assumes no duplicates within an epoch; the pipeline also dedups
defensively).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable

from repro.errors import ChainError
from repro.txn.transaction import Transaction


class Mempool:
    """FIFO pool of pending transactions with dedup and capacity."""

    def __init__(self, capacity: int = 1_000_000) -> None:
        if capacity <= 0:
            raise ChainError("mempool capacity must be positive")
        self.capacity = capacity
        self._pending: OrderedDict[int, Transaction] = OrderedDict()
        self._seen: set[int] = set()

    def submit(self, txn: Transaction) -> bool:
        """Add a transaction; returns False on duplicate or overflow."""
        if txn.txid in self._seen:
            return False
        if len(self._pending) >= self.capacity:
            return False
        self._pending[txn.txid] = txn
        self._seen.add(txn.txid)
        return True

    def submit_many(self, txns: list[Transaction]) -> int:
        """Add a batch; returns how many were accepted."""
        return sum(1 for txn in txns if self.submit(txn))

    def take(self, count: int) -> list[Transaction]:
        """Pop up to ``count`` transactions in FIFO order."""
        out: list[Transaction] = []
        while self._pending and len(out) < count:
            _, txn = self._pending.popitem(last=False)
            out.append(txn)
        return out

    def requeue(self, txns: list[Transaction]) -> None:
        """Return transactions to the front (aborted txns can be retried)."""
        for txn in reversed(txns):
            self._pending[txn.txid] = txn
            self._pending.move_to_end(txn.txid, last=False)

    def refuse(self, txids: Iterable[int]) -> None:
        """Refuse these ids from now on (e.g. ones already on chain)."""
        self._seen.update(txids)

    def forget(self, txids: set[int]) -> None:
        """Allow ids to be resubmitted (e.g. permanently rejected ones)."""
        self._seen -= txids

    def __len__(self) -> int:
        return len(self._pending)

    @property
    def pending_count(self) -> int:
        """Number of transactions waiting to be packed."""
        return len(self._pending)
