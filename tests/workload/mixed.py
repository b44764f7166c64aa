"""Mixed workloads for tests: several generators sharing one id space.

Real chains carry heterogeneous traffic.  ``MixedWorkload`` interleaves
any generators exposing ``generate(count)`` (SmallBank, token, synthetic,
or custom) according to weights, re-issuing ids from a single global
counter so batches stay well-formed for the schedulers.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.errors import WorkloadError
from repro.txn.transaction import Transaction


class MixedWorkload:
    """Weighted interleaving of several transaction generators."""

    def __init__(
        self,
        sources: Sequence[tuple[object, float]],
        seed: int = 0,
    ) -> None:
        if not sources:
            raise WorkloadError("mixed workload needs at least one source")
        total = sum(weight for _, weight in sources)
        if total <= 0:
            raise WorkloadError("source weights must sum to a positive value")
        self._sources = [(source, weight / total) for source, weight in sources]
        self._rng = random.Random(seed ^ 0x313BD)
        self._next_txid = 0

    def generate(self, count: int) -> list[Transaction]:
        """Produce ``count`` transactions drawn from the weighted sources."""
        out = []
        for _ in range(count):
            source = self._pick_source()
            txn = source.generate(1)[0]
            out.append(self._reissue(txn))
        return out

    def generate_blocks(self, block_count: int, block_size: int) -> list[list[Transaction]]:
        """Produce one epoch's worth of concurrent blocks."""
        return [self.generate(block_size) for _ in range(block_count)]

    def _pick_source(self):
        roll = self._rng.random()
        cumulative = 0.0
        for source, weight in self._sources:
            cumulative += weight
            if roll < cumulative:
                return source
        return self._sources[-1][0]

    def _reissue(self, txn: Transaction) -> Transaction:
        txid = self._next_txid
        self._next_txid += 1
        return Transaction(
            txid=txid,
            rwset=txn.rwset,
            sender=txn.sender,
            contract=txn.contract,
            function=txn.function,
            args=txn.args,
        )
