"""Per-address unit lists.

The paper decomposes each transaction ``T_v`` into fine-grained *units*:
``T_v^R`` (its read on some address) and ``T_v^W`` (its write).  Every
address ``A_j`` keeps an ordered read/write set ``RW_j`` holding all units
that touch it, with read units placed before write units and write units
ordered by transaction id (Section IV-B).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.txn.rwset import Address


@dataclass
class AddressRWList:
    """The ordered read/write set ``RW_j`` of one address.

    Reads always precede writes (read-write dependency rule) and writes are
    kept in ascending transaction-id order (deterministic write-write
    ordering rule).  Transaction ids appear at most once per list: a
    transaction that both reads and writes the address appears in both
    lists.  ``DenseACG.to_acg`` fills them from the dense unit arrays.
    """

    address: Address
    reads: list[int] = field(default_factory=list)
    writes: list[int] = field(default_factory=list)
    deltas: list[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.reads) + len(self.writes) + len(self.deltas)

    def __repr__(self) -> str:
        reads = ", ".join(f"T{t}^R" for t in self.reads)
        writes = ", ".join(f"T{t}^W" for t in self.writes)
        deltas = ", ".join(f"T{t}^D" for t in self.deltas)
        return f"RW({self.address}: [{reads} | {writes} | {deltas}])"
