"""Nibble paths and hex-prefix (compact) encoding for the MPT.

Trie keys are sequences of 4-bit nibbles.  A path is a ``bytes`` object
holding one nibble (0-15) per byte, so slicing, comparison, sorting and
hashing of paths all run at C speed.  Node paths are stored with
Ethereum's hex-prefix encoding, which packs two flag bits (odd length,
leaf vs extension) into the first nibble.
"""

from __future__ import annotations

from binascii import Error as _HexError
from binascii import hexlify, unhexlify

from repro.errors import TrieError

Nibbles = bytes

_HEX_DIGITS = b"0123456789abcdef"
_HEX_TO_NIBBLE = bytes.maketrans(_HEX_DIGITS, bytes(range(16)))
# Values above 15 map to a non-hex byte so unhexlify rejects them.
_NIBBLE_TO_HEX = _HEX_DIGITS + b"?" * 240

# Hex-prefix lead nibbles: flag (+ a zero pad nibble when the path is even).
_HP_LEAD = {
    (False, 0): b"\x00\x00",
    (False, 1): b"\x01",
    (True, 0): b"\x02\x00",
    (True, 1): b"\x03",
}


def bytes_to_nibbles(key: bytes) -> Nibbles:
    """Split each byte into its high and low nibble."""
    return hexlify(key).translate(_HEX_TO_NIBBLE)


def nibbles_to_bytes(nibbles: Nibbles) -> bytes:
    """Inverse of :func:`bytes_to_nibbles`; requires even length."""
    if len(nibbles) % 2:
        raise TrieError("odd nibble count cannot form whole bytes")
    try:
        return unhexlify(nibbles.translate(_NIBBLE_TO_HEX))
    except _HexError:
        raise TrieError("nibble values must be in 0..15") from None


def common_prefix_length(left: Nibbles, right: Nibbles) -> int:
    """Length of the longest shared prefix."""
    limit = min(len(left), len(right))
    diff = int.from_bytes(left[:limit], "big") ^ int.from_bytes(right[:limit], "big")
    # The highest set bit of the XOR sits in the first differing byte.
    return limit - (diff.bit_length() + 7) // 8


def hp_encode(nibbles: Nibbles, is_leaf: bool) -> bytes:
    """Hex-prefix encode a path with its leaf flag."""
    return nibbles_to_bytes(_HP_LEAD[is_leaf, len(nibbles) % 2] + nibbles)


def hp_decode(data: bytes) -> tuple[Nibbles, bool]:
    """Decode a hex-prefix path, returning ``(nibbles, is_leaf)``."""
    if not data:
        raise TrieError("empty hex-prefix path")
    nibbles = bytes_to_nibbles(data)
    flag = nibbles[0]
    if flag > 3:
        raise TrieError(f"invalid hex-prefix flag {flag}")
    is_leaf = flag >= 2
    if flag % 2:  # odd length
        return nibbles[1:], is_leaf
    if nibbles[1] != 0:
        raise TrieError("non-zero padding nibble in hex-prefix path")
    return nibbles[2:], is_leaf
