"""RLP (recursive length prefix) serialisation.

The Merkle Patricia Trie hashes the RLP encoding of its nodes, so node
serialisation must be deterministic and self-delimiting.  This is a
complete RLP implementation over the item domain ``bytes | list[item]``,
matching Ethereum's wire format (we only swap Keccak for SHA-256 at the
hashing layer, see DESIGN.md).
"""

from __future__ import annotations

from typing import Union

from repro.errors import TrieError

RLPItem = Union[bytes, list]


def rlp_encode(item: RLPItem) -> bytes:
    """Encode bytes or an arbitrarily nested list of bytes."""
    if isinstance(item, (bytes, bytearray)):
        return rlp_bytes(bytes(item))
    if isinstance(item, (list, tuple)):
        return rlp_list(b"".join(rlp_encode(element) for element in item))
    raise TrieError(f"cannot RLP-encode {type(item).__name__}")


def rlp_bytes(payload: bytes) -> bytes:
    """Encode one byte-string item."""
    if len(payload) == 1 and payload[0] < 0x80:
        return payload
    return _encode_length(len(payload), 0x80) + payload


def rlp_list(body: bytes) -> bytes:
    """Wrap already-encoded items, concatenated in ``body``, as a list."""
    return _encode_length(len(body), 0xC0) + body


def rlp_decode(data: bytes) -> RLPItem:
    """Decode one RLP item; trailing bytes are an error."""
    item, consumed = _decode_item(data, 0)
    if consumed != len(data):
        raise TrieError(f"trailing bytes after RLP item ({len(data) - consumed})")
    return item


def _encode_length(length: int, offset: int) -> bytes:
    if length < 56:
        return bytes((offset + length,))
    length_bytes = length.to_bytes((length.bit_length() + 7) // 8, "big")
    return bytes((offset + 55 + len(length_bytes),)) + length_bytes


def _decode_item(data: bytes, offset: int) -> tuple[RLPItem, int]:
    if offset >= len(data):
        raise TrieError("unexpected end of RLP data")
    prefix = data[offset]
    if prefix < 0x80:
        return bytes([prefix]), offset + 1
    if prefix < 0xB8:  # short string
        length = prefix - 0x80
        return _take(data, offset + 1, length)
    if prefix < 0xC0:  # long string
        length_size = prefix - 0xB7
        length, start = _read_length(data, offset + 1, length_size)
        return _take(data, start, length)
    if prefix < 0xF8:  # short list
        length = prefix - 0xC0
        return _decode_list(data, offset + 1, length)
    length_size = prefix - 0xF7  # long list
    length, start = _read_length(data, offset + 1, length_size)
    return _decode_list(data, start, length)


def _read_length(data: bytes, offset: int, size: int) -> tuple[int, int]:
    if offset + size > len(data):
        raise TrieError("truncated RLP length")
    length = int.from_bytes(data[offset : offset + size], "big")
    if length < 56:
        raise TrieError("non-canonical RLP length")
    return length, offset + size


def _take(data: bytes, offset: int, length: int) -> tuple[bytes, int]:
    if offset + length > len(data):
        raise TrieError("truncated RLP string")
    return data[offset : offset + length], offset + length


def _decode_list(data: bytes, offset: int, length: int) -> tuple[list, int]:
    end = offset + length
    if end > len(data):
        raise TrieError("truncated RLP list")
    items: list[RLPItem] = []
    cursor = offset
    while cursor < end:
        item, cursor = _decode_item(data, cursor)
        items.append(item)
    if cursor != end:
        raise TrieError("malformed RLP list body")
    return items, end
