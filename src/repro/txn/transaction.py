"""Transaction model shared by all concurrency-control schemes.

The paper orders transactions by their subscripts (ids); ids therefore act
as the deterministic tie-breaker everywhere.  A :class:`Transaction` is an
immutable description of *what* to run; the observed read/write sets are
attached after speculative execution (see :mod:`repro.txn.simulation`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.errors import TransactionError
from repro.txn.rwset import Address, RWSet


@dataclass(frozen=True, order=True)
class Transaction:
    """One blockchain transaction.

    Parameters
    ----------
    txid:
        Globally unique integer id.  The paper's ``T_u`` subscript; used for
        deterministic write-write ordering.
    rwset:
        Read/write summary.  For synthetic workloads this is provided up
        front; for contract transactions it is produced by the speculative
        execution phase.
    sender:
        Originating account (used by the VM as ``CALLER``).
    contract:
        Name of the target contract, or ``None`` for a plain transfer.
    function:
        Contract entry point name.
    args:
        Call arguments, a flat tuple of ints/strings.
    """

    txid: int
    rwset: RWSet = field(default_factory=RWSet, compare=False)
    sender: Address = field(default="", compare=False)
    contract: str | None = field(default=None, compare=False)
    function: str = field(default="", compare=False)
    args: tuple[Any, ...] = field(default=(), compare=False)

    def __post_init__(self) -> None:
        if self.txid < 0:
            raise TransactionError(f"txid must be non-negative, got {self.txid}")

    @property
    def read_set(self) -> frozenset[Address]:
        """``RS(T)`` — the set of addresses the transaction reads."""
        return self.rwset.read_addresses

    @property
    def write_set(self) -> frozenset[Address]:
        """``WS(T)`` — the set of addresses the transaction plainly writes.

        Commutative delta addresses are *not* included; they live in
        :attr:`delta_set` and are scheduled under relaxed rules.
        """
        return self.rwset.write_addresses

    @property
    def delta_set(self) -> frozenset[Address]:
        """``DS(T)`` — addresses updated by a commutative delta."""
        return self.rwset.delta_addresses

    def with_rwset(self, rwset: RWSet) -> "Transaction":
        """Return a copy carrying the given read/write summary."""
        return Transaction(
            txid=self.txid,
            rwset=rwset,
            sender=self.sender,
            contract=self.contract,
            function=self.function,
            args=self.args,
        )

    def digest(self) -> bytes:
        """Stable content hash used for block bodies and dedup."""
        h = hashlib.sha256()
        h.update(str(self.txid).encode())
        h.update(b"|")
        h.update(self.sender.encode())
        h.update(b"|")
        h.update((self.contract or "").encode())
        h.update(b"|")
        h.update(self.function.encode())
        for arg in self.args:
            h.update(b"|")
            h.update(str(arg).encode())
        # Synthetic transactions are distinguished only by their rw-sets.
        for address in sorted(self.read_set):
            h.update(b"|r:")
            h.update(address.encode())
        for address in sorted(self.write_set):
            h.update(b"|w:")
            h.update(address.encode())
        for address in sorted(self.delta_set):
            h.update(b"|d:")
            h.update(address.encode())
            h.update(str(self.rwset.deltas[address]).encode())
        return h.digest()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Transaction(txid={self.txid}, reads={sorted(self.read_set)}, "
            f"writes={sorted(self.write_set)})"
        )


def make_transaction(
    txid: int,
    reads: Mapping[Address, Any] | list[Address] | tuple[Address, ...] | frozenset[Address] = (),
    writes: Mapping[Address, Any] | list[Address] | tuple[Address, ...] | frozenset[Address] = (),
    deltas: Mapping[Address, int] | None = None,
    **kwargs: Any,
) -> Transaction:
    """Convenience constructor accepting address lists or value mappings.

    Examples
    --------
    >>> t = make_transaction(1, reads=["A2"], writes=["A1"])
    >>> sorted(t.read_set), sorted(t.write_set)
    (['A2'], ['A1'])
    """
    if not isinstance(reads, Mapping):
        reads = {address: None for address in reads}
    if not isinstance(writes, Mapping):
        writes = {address: None for address in writes}
    return Transaction(
        txid=txid,
        rwset=RWSet(reads=reads, writes=writes, deltas=dict(deltas) if deltas else {}),
        **kwargs,
    )
