"""Every epoch up to a small bound, checked from first principles.

A CC bug that shows on some epoch usually shows on a small one.  This
module enumerates *every* epoch of a few transactions over a few
addresses — each (transaction, address) cell one of none / R / W / RW,
plus D (a commutative delta) in a delta scope — and on each one asserts
that

* the Nezha schedule certifies (``certify_epoch``), with and without the
  Section IV-D reorder, and equals ``schedule_reference``'s;
* CG and OCC schedules certify whenever the scheme returns one;
* ``replays_serially`` — a brute-force search over serial orders that
  shares no code with the certifier — reaches the certifier's verdict on
  every schedule above;
* Nezha aborts at least ``min_abort_count`` transactions.

The two oracles must also agree where the verdict is "no": Algorithm 2
without its validation pass commits non-serializable orders on about a
third of the 3x2 epochs, and both reject each of them.

Epochs are not collapsed by renaming symmetry: txid and address order
both drive Algorithm 1/2 tie-breaks, so mirror-image epochs take different
branches.  To fit tier-1's budget the 3x2 delta scope keeps the epochs
whose deltas sit on one address (7 808 of the 11 529 holding a delta);
``check_scope(3, 2, deltas=2)`` runs all of them.  ``check_scope`` also
measures Nezha's abort gap to the minimum; EXPERIMENTS.md tabulates it
for the tier-1 scopes and for 3x3 and 4x2, which take minutes::

    PYTHONPATH=src:. python -c "from tests.core.test_small_scope import check_scope; print(check_scope(3, 3))"
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator

import pytest

from repro.analysis.certify import certify_epoch
from repro.baselines import CGScheduler, OCCScheduler
from repro.core import NezhaConfig, NezhaScheduler, Schedule
from repro.txn import Transaction, make_transaction

from tests.reference import min_abort_count, replays_serially, schedule_reference

CELLS = ("", "R", "W", "RW", "D")


def epochs(n_txns: int, n_addrs: int, deltas: int = 0) -> Iterator[list[Transaction]]:
    """Every batch of ``n_txns`` transactions over ``n_addrs`` addresses.

    ``deltas`` is how many addresses may carry D cells.  A delta scope
    yields only batches holding at least one: the plain scope of the same
    shape (``deltas=0``) already covers the rest.
    """
    cells = CELLS if deltas else CELLS[:4]
    addresses = [f"a{i}" for i in range(n_addrs)]
    rows = list(itertools.product(cells, repeat=n_addrs))
    # One (immutable) transaction per txid and row, shared across batches.
    choices = [
        [
            make_transaction(
                txid,
                reads=[a for a, cell in zip(addresses, row) if "R" in cell],
                writes=[a for a, cell in zip(addresses, row) if "W" in cell],
                deltas={a: txid for a, cell in zip(addresses, row) if cell == "D"},
            )
            for row in rows
        ]
        for txid in range(1, n_txns + 1)
    ]
    for txns in itertools.product(*choices):
        if deltas and not 1 <= len(set().union(*(t.delta_set for t in txns))) <= deltas:
            continue
        yield list(txns)


def render(txns: list[Transaction]) -> str:
    """``T1 R(a0) W(a1); T3 D(a1)`` — one epoch on one line, leaving out
    the transactions that touch nothing."""
    parts = []
    for txn in txns:
        units = [f"R({a})" for a in sorted(txn.read_set)]
        units += [f"W({a})" for a in sorted(txn.write_set)]
        units += [f"D({a})" for a in sorted(txn.delta_set)]
        if units:
            parts.append(" ".join([f"T{txn.txid}", *units]))
    return "; ".join(parts) or "(no units)"


def certified(txns: list[Transaction], schedule: Schedule, scheme: str) -> bool:
    """The certifier's verdict, asserted equal to the brute force's."""
    verdict = certify_epoch({t.txid: t.rwset for t in txns}, schedule, scheme=scheme).ok
    groups = [group.txids for group in schedule.groups]
    assert replays_serially({t.txid: t for t in txns}, groups) == verdict, (
        scheme,
        render(txns),
        schedule,
    )
    return verdict


@dataclass
class Gap:
    """Nezha's aborts beyond ``min_abort_count`` over one scope."""

    total: int = 0
    worst: int = 0
    epochs: int = 0
    smallest: str = ""
    _smallest_key: tuple[int, tuple[int, ...]] = (0, ())

    def record(self, excess: int, txns: list[Transaction]) -> None:
        if not excess:
            return
        self.total += excess
        self.worst = max(self.worst, excess)
        self.epochs += 1
        # Fewest units first, then the lowest txids doing anything.
        sizes = {t.txid: len(t.read_set) + len(t.write_set) + len(t.delta_set) for t in txns}
        key = (sum(sizes.values()), tuple(txid for txid, size in sizes.items() if size))
        if not self.smallest or key < self._smallest_key:
            self.smallest, self._smallest_key = render(txns), key


@dataclass
class ScopeStats:
    """What ``check_scope`` saw: the epoch count and the abort gap per reorder flag."""

    epochs: int = 0
    gap: dict[bool, Gap] = field(default_factory=lambda: {True: Gap(), False: Gap()})

    def __str__(self) -> str:
        lines = [f"{self.epochs} epochs"]
        for reorder, gap in self.gap.items():
            lines.append(
                f"reorder={'on' if reorder else 'off'}: excess aborts total "
                f"{gap.total}, mean {gap.total / max(self.epochs, 1):.4f}, "
                f"max {gap.worst}, in {gap.epochs} epochs; smallest: {gap.smallest or '-'}"
            )
        return "\n".join(lines)


def check_scope(n_txns: int, n_addrs: int, deltas: int = 0) -> ScopeStats:
    """Assert the module's properties on every epoch of one scope."""
    stats = ScopeStats()
    nezha = {
        reorder: NezhaScheduler(NezhaConfig(enable_reorder=reorder))
        for reorder in (True, False)
    }
    # CG and OCC never see delta units: the node downgrades them to the
    # read-modify-writes the plain scope covers.
    baselines = () if deltas else (CGScheduler(), OCCScheduler())
    for txns in epochs(n_txns, n_addrs, deltas):
        stats.epochs += 1
        result = nezha[True].schedule(txns)
        reference = schedule_reference(txns, nezha[True].config)
        assert result.schedule == reference.schedule, render(txns)
        entered = result.dense_acg.batch.addr_ids
        assert result.rank_order == [
            a for a in reference.rank_order if a in entered
        ], render(txns)
        assert result.abort_edges == reference.abort_edges, render(txns)
        results = {True: result, False: nezha[False].schedule_dense(result.dense_acg)}
        # Each distinct schedule once, with the scheme that produced it.
        schedules = {r.schedule: "nezha" for r in results.values()}
        for scheme in baselines:
            outcome = scheme.schedule(txns)
            if not outcome.failed:
                schedules.setdefault(outcome.schedule, scheme.name)
        for schedule, scheme in schedules.items():
            assert certified(txns, schedule, scheme), render(txns)
        if any(r.schedule.aborted for r in results.values()):
            floor = min_abort_count(txns)
            for reorder, r in results.items():
                excess = r.schedule.aborted_count - floor
                assert excess >= 0, render(txns)
                stats.gap[reorder].record(excess, txns)
    return stats


@pytest.mark.parametrize(
    "n_txns, n_addrs, deltas, count",
    [(3, 2, 0, 4**6), (2, 3, 0, 4**6), (3, 2, 1, 7808)],
    ids=["3x2", "2x3", "3x2-delta"],
)
def test_every_epoch_in_scope(n_txns, n_addrs, deltas, count):
    assert check_scope(n_txns, n_addrs, deltas).epochs == count


def test_oracles_agree_on_unvalidated_sorter():
    """Teeth: Algorithm 2 as printed commits non-serializable orders here."""
    unvalidated = NezhaScheduler(NezhaConfig(enable_validation=False))
    rejected = sum(
        not certified(txns, unvalidated.schedule(txns).schedule, "nezha")
        for txns in epochs(3, 2)
    )
    assert rejected > 4**6 // 4
