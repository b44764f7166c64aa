"""Commit schedules: the output of every concurrency-control scheme.

A schedule partitions the committed transactions into *commit groups*;
groups commit in ascending sequence order while the transactions inside a
group are pairwise conflict-free and may commit concurrently (the paper's
"total commit order with a certain degree of concurrency").  A fully
serial schedule is simply one transaction per group.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Iterator, Mapping, Sequence

_NOTHING: Mapping[int, Any] = MappingProxyType({})


@dataclass(frozen=True)
class CommitGroup:
    """Transactions sharing one sequence number."""

    sequence: int
    txids: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.txids)


@dataclass(frozen=True)
class Schedule:
    """A total commit order with intra-group concurrency.

    Attributes
    ----------
    groups:
        Commit groups in ascending sequence order; txids inside a group are
        sorted ascending for determinism.
    aborted:
        Ids of transactions aborted by concurrency control, sorted.
    reordered:
        Ids rescued by the reordering enhancement (Nezha only), sorted.
    """

    groups: tuple[CommitGroup, ...] = ()
    aborted: tuple[int, ...] = ()
    reordered: tuple[int, ...] = ()

    @property
    def committed(self) -> tuple[int, ...]:
        """All committed txids in commit order (group by group)."""
        out: list[int] = []
        for group in self.groups:
            out.extend(group.txids)
        return tuple(out)

    @property
    def committed_count(self) -> int:
        """Number of committed transactions."""
        return sum(len(group) for group in self.groups)

    @property
    def aborted_count(self) -> int:
        """Number of aborted transactions."""
        return len(self.aborted)

    @property
    def total_count(self) -> int:
        """Committed plus aborted transactions."""
        return self.committed_count + self.aborted_count

    @property
    def abort_rate(self) -> float:
        """Fraction of input transactions that were aborted."""
        total = self.total_count
        return self.aborted_count / total if total else 0.0

    @property
    def max_group_size(self) -> int:
        """Size of the largest concurrent commit group."""
        return max((len(group) for group in self.groups), default=0)

    @property
    def mean_group_size(self) -> float:
        """Average commit-group size (commit concurrency measure)."""
        if not self.groups:
            return 0.0
        return self.committed_count / len(self.groups)

    def sequences(self) -> dict[int, int]:
        """Mapping txid -> sequence number for committed transactions."""
        return {
            txid: group.sequence for group in self.groups for txid in group.txids
        }

    def serial_order(self) -> list[int]:
        """The equivalent serial order: ascending (sequence, txid)."""
        return list(self.committed)

    def iter_groups(self) -> Iterator[CommitGroup]:
        """Yield commit groups in commit order."""
        return iter(self.groups)


class SchemeResult:
    """What any scheme's ``schedule()`` returns, as its consumers read it.

    The pipeline, the bench harness and the CLI read exactly these
    members off a result, whatever the scheme; a scheme that records
    more (Nezha's attribution, CG's failure flag) overrides the default.

    Attributes
    ----------
    schedule:
        The commit schedule (every scheme sets it).
    failed:
        The scheme gave up wholesale (CG's cycle budget); nothing commits.
    abort_reasons:
        txid -> taxonomy reason for the aborts the scheme attributes;
        unattributed aborts count as ``scheme_conflict``.
    abort_edges:
        txid -> attributed conflict edges ``(peer txid, address, kind)``.
    revived / revived_txids:
        Transactions a validation pass rescued back into the schedule.
    phases:
        Sub-phase name -> seconds, each the ``duration`` of the span the
        scheme opened around that sub-phase (empty when it has none).
    """

    schedule: Schedule
    phases: dict[str, float]
    failed: bool = False
    abort_reasons: Mapping[int, str] = _NOTHING
    abort_edges: Mapping[int, list[tuple[int, str, str]]] = _NOTHING
    revived: int = 0
    revived_txids: tuple[int, ...] = ()

    def __init__(
        self, schedule: Schedule, phases: dict[str, float] | None = None
    ) -> None:
        self.schedule = schedule
        self.phases = phases if phases is not None else {}

    def phase_seconds(self) -> dict[str, float]:
        """Sub-phase name -> wall-clock seconds (Figure 10's breakdown)."""
        return self.phases


def schedule_from_sequences(
    sequences: Mapping[int, int],
    aborted: Sequence[int] | set[int] = (),
    reordered: Sequence[int] | set[int] = (),
) -> Schedule:
    """Group committed transactions by their sequence numbers."""
    aborted_set = set(aborted)
    by_sequence: dict[int, list[int]] = {}
    for txid, sequence in sequences.items():
        if txid in aborted_set:
            continue
        by_sequence.setdefault(sequence, []).append(txid)
    groups = tuple(
        CommitGroup(sequence=sequence, txids=tuple(sorted(by_sequence[sequence])))
        for sequence in sorted(by_sequence)
    )
    return Schedule(
        groups=groups,
        aborted=tuple(sorted(aborted_set)),
        reordered=tuple(sorted(set(reordered) - aborted_set)),
    )


def serial_schedule(txids: Sequence[int], aborted: Sequence[int] = ()) -> Schedule:
    """Build a one-transaction-per-group schedule (the Serial baseline)."""
    aborted_set = set(aborted)
    groups = tuple(
        CommitGroup(sequence=position + 1, txids=(txid,))
        for position, txid in enumerate(t for t in txids if t not in aborted_set)
    )
    return Schedule(groups=groups, aborted=tuple(sorted(aborted_set)))
