"""Account-model values stored in the state trie.

The paper's system model is account-based (Section III-A): conflicts are
concurrent reads/writes of account addresses.  Two value shapes live in
the trie:

* plain integer slots (contract storage such as SmallBank balances);
* structured :class:`Account` objects (balance + nonce), used by the DAG
  chain's native value transfers and the examples.

Both serialise through RLP so state roots are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import StateError
from repro.state.mpt.codec import rlp_decode, rlp_encode


def encode_int(value: int) -> bytes:
    """Canonical RLP integer encoding (big-endian, no leading zeros).

    The zero encoding is a single zero byte rather than the empty string
    because trie values must be non-empty.
    """
    if value < 0:
        raise StateError(f"state integers must be non-negative, got {value}")
    if value == 0:
        return b"\x00"
    out = b""
    while value:
        out = bytes([value & 0xFF]) + out
        value >>= 8
    return out


def decode_int(data: bytes) -> int:
    """Inverse of :func:`encode_int`."""
    if not data:
        raise StateError("empty integer encoding")
    return int.from_bytes(data, "big")


@dataclass(frozen=True)
class Account:
    """A native account: spendable balance and replay-protection nonce."""

    balance: int = 0
    nonce: int = 0

    def __post_init__(self) -> None:
        if self.balance < 0:
            raise StateError(f"balance must be non-negative, got {self.balance}")
        if self.nonce < 0:
            raise StateError(f"nonce must be non-negative, got {self.nonce}")

    def encode(self) -> bytes:
        """Canonical RLP: ``[balance, nonce]``."""
        return rlp_encode([encode_int(self.balance), encode_int(self.nonce)])

    @classmethod
    def decode(cls, data: bytes) -> "Account":
        """Parse the canonical encoding."""
        item = rlp_decode(data)
        if not isinstance(item, list) or len(item) != 2:
            raise StateError("account encoding must be a two-item list")
        balance, nonce = item
        return cls(balance=decode_int(balance), nonce=decode_int(nonce))

    def bumped(self) -> "Account":
        """Copy with the nonce advanced by one."""
        return Account(balance=self.balance, nonce=self.nonce + 1)
