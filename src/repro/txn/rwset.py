"""Read/write set abstractions.

A transaction's interaction with state is summarised by the set of
addresses it reads and the set of addresses it writes, together with the
observed read values and the produced write values.  Concurrency control
only inspects the address sets; commitment applies the write values.

A third access kind — *bounded commutative deltas* — records writes that
are provably ``old_value + k`` for a constant ``k`` independent of the
stored value.  Deltas on one address commute with each other (they fold
to the same sum in any order), so concurrency control can let them share
sequence numbers the way shared reads do, instead of treating them as
write-write conflicts.  Deltas still conflict with plain reads and plain
writes on the same address.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from typing import Any

from repro.errors import TransactionError

Address = str
"""Addresses are opaque strings (e.g. ``"acct:000042"`` or a contract slot)."""


@dataclass(frozen=True)
class RWSet:
    """Immutable read/write summary of one transaction.

    Parameters
    ----------
    reads:
        Mapping from each read address to the value observed during the
        speculative execution.  The value may be ``None`` when only the
        address set matters (synthetic workloads).
    writes:
        Mapping from each written address to the value the transaction
        intends to install at commit time.
    deltas:
        Mapping from each delta address to the signed amount the
        transaction adds to the stored value at commit time.  A delta
        address never appears in ``reads`` or ``writes``: the whole point
        of the classification is that the transaction's behaviour does
        not depend on the stored value, so the read and the
        read-modify-write collapse into the single commutative unit.
    """

    reads: Mapping[Address, Any] = field(default_factory=dict)
    writes: Mapping[Address, Any] = field(default_factory=dict)
    deltas: Mapping[Address, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.reads, Mapping) or not isinstance(self.writes, Mapping):
            raise TransactionError("reads and writes must be mappings")
        if not isinstance(self.deltas, Mapping):
            raise TransactionError("deltas must be a mapping")
        if self.deltas:
            overlap = self.deltas.keys() & (self.reads.keys() | self.writes.keys())
            if overlap:
                raise TransactionError(
                    f"delta addresses must be disjoint from reads/writes: {sorted(overlap)}"
                )

    @property
    def read_addresses(self) -> frozenset[Address]:
        """Addresses read by the transaction (``RS(T)`` in the paper)."""
        return frozenset(self.reads)

    @property
    def write_addresses(self) -> frozenset[Address]:
        """Addresses written by the transaction (``WS(T)`` in the paper)."""
        return frozenset(self.writes)

    @property
    def delta_addresses(self) -> frozenset[Address]:
        """Addresses updated by a commutative delta (``DS(T)``)."""
        return frozenset(self.deltas)

    @property
    def addresses(self) -> frozenset[Address]:
        """All addresses the transaction touches."""
        return self.read_addresses | self.write_addresses | self.delta_addresses

    def conflicts_with(self, other: "RWSet") -> bool:
        """Return ``True`` if the two sets exhibit a rw, wr, or ww conflict.

        Deltas behave like writes here except that two deltas on the same
        address commute and therefore do not conflict.
        """
        mine_w = self.write_addresses
        theirs_w = other.write_addresses
        mine_d = self.delta_addresses
        theirs_d = other.delta_addresses
        if (mine_w | mine_d) & theirs_w:
            return True
        if mine_w & theirs_d:
            return True
        if self.read_addresses & (theirs_w | theirs_d):
            return True
        if other.read_addresses & (mine_w | mine_d):
            return True
        return False

    def merged_with(self, other: "RWSet") -> "RWSet":
        """Combine two summaries; later writes win, reads union, deltas sum.

        A plain read or write in either summary downgrades a delta on the
        same address: the merged summary must stay internally disjoint,
        and a value-dependent access breaks the commutativity argument.
        """
        reads = dict(self.reads)
        reads.update(other.reads)
        writes = dict(self.writes)
        writes.update(other.writes)
        deltas: dict[Address, int] = {}
        for source in (self.deltas, other.deltas):
            for address, amount in source.items():
                deltas[address] = deltas.get(address, 0) + amount
        downgraded = deltas.keys() & (reads.keys() | writes.keys())
        for address in downgraded:
            writes.setdefault(address, None)
            del deltas[address]
        return RWSet(reads=reads, writes=writes, deltas=deltas)

    def iter_units(self) -> Iterator[tuple[Address, str]]:
        """Yield ``(address, kind)`` pairs with kind in {"R", "W", "D"}."""
        for address in self.reads:
            yield address, "R"
        for address in self.writes:
            yield address, "W"
        for address in self.deltas:
            yield address, "D"

    @staticmethod
    def from_addresses(
        read_addresses: Iterator[Address] | frozenset[Address] | list[Address] | tuple[Address, ...],
        write_addresses: Iterator[Address] | frozenset[Address] | list[Address] | tuple[Address, ...],
        deltas: Mapping[Address, int] | None = None,
    ) -> "RWSet":
        """Build a value-less summary from plain address collections."""
        return RWSet(
            reads={address: None for address in read_addresses},
            writes={address: None for address in write_addresses},
            deltas=dict(deltas) if deltas else {},
        )
