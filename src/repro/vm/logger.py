"""Read/write logging storage accessor.

The paper implements "an EVM-based read/write logger to record the
addresses and values that each transaction reads and writes during
simulation execution" (Section V).  :class:`LoggedStorage` is that
logger: it wraps a snapshot read function, buffers writes (speculative
execution never touches real state), and records the observed read
values and produced write values as an :class:`~repro.txn.rwset.RWSet`.

Reads served from the transaction's own earlier write are *not* logged
as snapshot reads — they create no cross-transaction dependency.

Writes that the static classifier proved to be commutative increments
(``old ± k`` with no control-flow dependence on ``old``) can be
*promoted* to bounded delta units after execution: the read/write pair
collapses into a single signed delta, eliminating the cross-transaction
dependency entirely.  Promotion re-checks the claimed delta against the
dynamically observed values — a mismatch silently downgrades the site
back to a plain read-modify-write, which is always safe.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.txn.rwset import Address, RWSet
from repro.vm.opcodes import WORD_MASK

ReadFn = Callable[[Address], int]

_WORD_MOD = WORD_MASK + 1


class LoggedStorage:
    """Speculative storage view with dependency logging."""

    def __init__(self, read_fn: ReadFn) -> None:
        self._read_fn = read_fn
        self._reads: dict[Address, int] = {}
        self._writes: dict[Address, int] = {}
        self._deltas: dict[Address, int] = {}

    def load(self, address: Address) -> int:
        """Read a slot, preferring the transaction's own writes."""
        if address in self._writes:
            return self._writes[address]
        if address in self._reads:
            return self._reads[address]
        value = self._read_fn(address)
        self._reads[address] = value
        return value

    def store(self, address: Address, value: int) -> None:
        """Buffer a write; nothing reaches real state until commit."""
        self._writes[address] = value

    def promote_deltas(self, sites: Iterable[tuple[Address, int]]) -> None:
        """Promote statically classified writes to commutative deltas.

        ``sites`` pairs each candidate address with the delta the static
        classifier predicts for it, reduced modulo 2**64.  A site is
        promoted only when the dynamically observed write value equals
        the observed read value plus that delta (mod 2**64) — the
        differential check that keeps a constant-propagation bug from
        ever corrupting state.  Sites that fail the check, were never
        both read and written, or carry a zero delta stay plain
        read-modify-writes.
        """
        for address, delta_mod in sites:
            delta_mod %= _WORD_MOD
            if delta_mod == 0:
                continue
            if address not in self._reads or address not in self._writes:
                continue
            read = self._reads[address]
            written = self._writes[address]
            if (written - read - delta_mod) % _WORD_MOD != 0:
                continue
            signed = delta_mod - _WORD_MOD if delta_mod >= _WORD_MOD // 2 else delta_mod
            del self._reads[address]
            del self._writes[address]
            self._deltas[address] = signed

    def rwset(self) -> RWSet:
        """The recorded read/write summary."""
        return RWSet(
            reads=dict(self._reads),
            writes=dict(self._writes),
            deltas=dict(self._deltas),
        )

    def discard(self) -> None:
        """Forget buffered writes (used when execution reverts)."""
        self._writes.clear()
        self._deltas.clear()
