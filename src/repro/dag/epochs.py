"""Epoch extraction and deterministic total ordering.

The paper models the DAG blockchain as ``B = {B_e | e >= 0}`` where
``B_e`` is the set of valid concurrent blocks of epoch ``e`` (Section
III-A).  With lockstep parallel chains, epoch ``e`` is simply the set of
height-``e`` blocks across chains; the deterministic total order within
an epoch is ascending chain id (OHIE's rank order restricted to this
synchronous regime), which the Serial baseline uses for block-by-block
processing.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dag.block import Block
from repro.dag.chain import ParallelChains
from repro.txn.transaction import Transaction


@dataclass(frozen=True)
class Epoch:
    """One epoch's concurrent blocks, in deterministic (chain id) order."""

    index: int
    blocks: tuple[Block, ...]

    @property
    def concurrency(self) -> int:
        """The paper's ``omega_e``: number of concurrent blocks."""
        return len(self.blocks)

    def transactions(self, exclude: frozenset[int] | set[int] = frozenset()) -> list[Transaction]:
        """Transactions appearing in the epoch, first occurrence wins.

        Matches the paper's "picks transactions that first appear in all
        verified blocks"; blocks are scanned in total order, so a
        transaction duplicated across concurrent blocks is processed once.
        ``exclude`` suppresses ids already processed in earlier epochs
        (a duplicate packed by a lagging miner must not re-execute).
        """
        seen: set[int] = set(exclude)
        out: list[Transaction] = []
        for block in self.blocks:
            for txn in block.transactions:
                if txn.txid in seen:
                    continue
                seen.add(txn.txid)
                out.append(txn)
        return out

    @property
    def transaction_count(self) -> int:
        """The paper's ``N_e`` (with duplicates removed)."""
        return len(self.transactions())


def extract_epoch(chains: ParallelChains, index: int) -> Epoch | None:
    """The epoch at ``index``, or ``None`` when no chain has reached it."""
    blocks = []
    for chain_id in range(chains.chain_count):
        block = chains.block_at(chain_id, index)
        if block is not None:
            blocks.append(block)
    if not blocks:
        return None
    return Epoch(index=index, blocks=tuple(blocks))
