"""Out-of-order block ingestion.

Real networks deliver blocks one at a time, unordered, sometimes
duplicated.  :class:`BlockIngest` sits in front of a
:class:`~repro.node.node.FullNode` and restores the epoch-synchronous
world the pipeline expects:

* blocks are buffered by height;
* an epoch is handed to the node once every chain has contributed its
  height-``h`` block *and* all earlier epochs are processed (blocks carry
  the previous epoch's state root, so epochs cannot be validated out of
  order);
* duplicates and stale blocks are dropped;
* a partial epoch can be forced through (``flush``) when the network has
  decided some chain will not deliver — the paper's "discard invalid
  block" path generalised to missing blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dag.block import Block
from repro.errors import BlockValidationError
from repro.node.node import FullNode
from repro.node.phases import EpochReport


@dataclass
class IngestStats:
    """Counters for everything the ingest layer saw."""

    accepted: int = 0
    duplicates: int = 0
    stale: int = 0
    epochs_processed: int = 0
    partial_epochs: int = 0


@dataclass
class BlockIngest:
    """Buffers unordered block arrivals into processable epochs."""

    node: FullNode
    pending: dict[int, dict[int, Block]] = field(default_factory=dict)
    stats: IngestStats = field(default_factory=IngestStats)

    def receive_block(self, block: Block) -> list[EpochReport]:
        """Accept one block; returns reports for any epochs now complete.

        A block below the node's next epoch is stale (already processed);
        a block at or above it is buffered until its epoch completes.
        Completing an epoch can cascade: buffered later epochs drain too.
        """
        height = block.height
        if height < self.node.next_epoch:
            self.stats.stale += 1
            return []
        slot = self.pending.setdefault(height, {})
        if block.chain_id in slot:
            self.stats.duplicates += 1
            return []
        slot[block.chain_id] = block
        self.stats.accepted += 1
        return self._drain()

    def receive_blocks(self, blocks: list[Block]) -> list[EpochReport]:
        """Accept a batch in any order."""
        reports: list[EpochReport] = []
        for block in blocks:
            reports.extend(self.receive_block(block))
        return reports

    def flush(self) -> EpochReport | None:
        """Force the next epoch through with whatever blocks arrived.

        Used when the network gives up on a missing block.  Returns the
        report, or ``None`` when nothing at all is buffered for the next
        epoch.  Flushing can unblock buffered later epochs, which are
        drained by the next ``receive_block`` call (or another flush).
        """
        height = self.node.next_epoch
        slot = self.pending.pop(height, None)
        if not slot:
            return None
        blocks = [slot[chain_id] for chain_id in sorted(slot)]
        report = self.node.receive_epoch(blocks)
        self.stats.epochs_processed += 1
        if len(blocks) < self.node.chains.chain_count:
            self.stats.partial_epochs += 1
        return report

    def _drain(self) -> list[EpochReport]:
        """Process every consecutively-complete epoch from the front."""
        reports: list[EpochReport] = []
        chain_count = self.node.chains.chain_count
        while True:
            height = self.node.next_epoch
            slot = self.pending.get(height)
            if slot is None or len(slot) < chain_count:
                break
            del self.pending[height]
            blocks = [slot[chain_id] for chain_id in sorted(slot)]
            try:
                report = self.node.receive_epoch(blocks)
            except BlockValidationError:
                # The whole epoch was discarded; drop it and stop draining
                # (later epochs carry roots we will never reach).
                raise
            reports.append(report)
            self.stats.epochs_processed += 1
        return reports

    @property
    def buffered_blocks(self) -> int:
        """Blocks waiting for their epoch to complete."""
        return sum(len(slot) for slot in self.pending.values())
