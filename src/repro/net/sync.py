"""Catch-up synchronisation: a lagging node pulls archived blocks.

A replica that was offline (or partitioned) cannot process new epochs —
their blocks carry state roots it has not reached.  ``sync_from_archive``
replays the missing epochs from a peer's :class:`~repro.dag.blockstore.BlockStore`
through the node's normal validation-and-processing path, so a synced
node is byte-identical to one that never went offline (asserted by
tests).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dag.blockstore import BlockStore
from repro.errors import NetworkError
from repro.node.node import FullNode
from repro.obs.tracer import maybe_span


@dataclass(frozen=True)
class SyncReport:
    """What a catch-up pass accomplished."""

    start_epoch: int
    epochs_applied: int
    transactions_committed: int


def sync_from_archive(
    node: FullNode, archive: BlockStore, max_epochs: int | None = None
) -> SyncReport:
    """Replay archived epochs through the node until it is caught up.

    The archive is treated as an untrusted peer: every block goes through
    the node's full validation (PoW, chain assignment, parentage, state
    root), so a corrupt or malicious archive cannot poison the node —
    it just fails the sync with :class:`~repro.errors.NetworkError`.
    """
    start = node.next_epoch
    applied = committed = 0
    while max_epochs is None or applied < max_epochs:
        height = node.next_epoch
        try:
            blocks = archive.epoch_blocks(height, node.chains.chain_count)
        except Exception as exc:  # noqa: BLE001 - rewrap with context
            raise NetworkError(
                f"archive returned a corrupt block at height={height}: {exc}"
            ) from exc
        if not blocks:
            break  # archive exhausted: caught up
        try:
            with maybe_span(node.tracer, "sync.round", epoch=height) as span:
                report = node.receive_epoch(blocks)
                span.set(committed=report.committed)
        except Exception as exc:  # noqa: BLE001 - rewrap with context
            raise NetworkError(
                f"sync failed at epoch {height}: {exc}"
            ) from exc
        applied += 1
        committed += report.committed
    return SyncReport(
        start_epoch=start,
        epochs_applied=applied,
        transactions_committed=committed,
    )
