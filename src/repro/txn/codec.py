"""Binary serialisation of transactions (RLP-based).

Blocks must be persisted and (in a real deployment) shipped over the
wire, so transactions need a canonical byte encoding.  Layout::

    [txid, sender, contract_tag, function, [args...], [reads...], [writes...],
     [deltas...]]

where args are tagged scalars (none / int / str) and reads/writes are
``[address, tagged-value]`` pairs.  Deltas are ``[address, amount]``
pairs whose signed amount travels as ``amount % 2**64`` (the scalar
codec is unsigned) and is re-signed on decode.  The trailing deltas
list is omitted when empty, so delta-free transactions keep their
legacy 7-item encoding and old blobs still decode.
``decode_transaction`` is the exact inverse of ``encode_transaction``
(property-tested).
"""

from __future__ import annotations

from typing import Any

from repro.errors import TransactionError
from repro.state.mpt.codec import rlp_decode, rlp_encode
from repro.txn.rwset import RWSet
from repro.txn.transaction import Transaction

__all__ = ["decode_transaction", "encode_transaction"]

_TAG_NONE = b"\x00"
_TAG_INT = b"\x01"
_TAG_STR = b"\x02"
_TAG_BYTES = b"\x03"

_NO_CONTRACT = b"\x00"
_HAS_CONTRACT = b"\x01"

_DELTA_MOD = 1 << 64


def _unsign_delta(amount: int) -> int:
    return amount % _DELTA_MOD


def _resign_delta(amount: int) -> int:
    return amount - _DELTA_MOD if amount >= _DELTA_MOD // 2 else amount


def _encode_scalar(value: Any) -> bytes:
    if value is None:
        return _TAG_NONE
    if isinstance(value, bool):
        raise TransactionError("boolean scalars are not supported")
    if isinstance(value, int):
        if value < 0:
            raise TransactionError(f"negative scalar {value} not supported")
        out = b""
        scratch = value
        while scratch:
            out = bytes([scratch & 0xFF]) + out
            scratch >>= 8
        return _TAG_INT + out
    if isinstance(value, str):
        return _TAG_STR + value.encode()
    if isinstance(value, (bytes, bytearray)):
        return _TAG_BYTES + bytes(value)
    raise TransactionError(f"cannot encode scalar of type {type(value).__name__}")


def _decode_scalar(blob: bytes) -> Any:
    if not blob:
        raise TransactionError("empty scalar encoding")
    tag, payload = blob[:1], blob[1:]
    if tag == _TAG_NONE:
        if payload:
            raise TransactionError("trailing bytes after None scalar")
        return None
    if tag == _TAG_INT:
        return int.from_bytes(payload, "big")
    if tag == _TAG_STR:
        return payload.decode()
    if tag == _TAG_BYTES:
        return payload
    raise TransactionError(f"unknown scalar tag {tag!r}")


def encode_transaction(txn: Transaction) -> bytes:
    """Serialise a transaction to canonical bytes."""
    contract = (
        _NO_CONTRACT if txn.contract is None else _HAS_CONTRACT + txn.contract.encode()
    )
    reads = [
        [address.encode(), _encode_scalar(txn.rwset.reads[address])]
        for address in sorted(txn.rwset.reads)
    ]
    writes = [
        [address.encode(), _encode_scalar(txn.rwset.writes[address])]
        for address in sorted(txn.rwset.writes)
    ]
    item = [
        _encode_scalar(txn.txid)[1:] or b"\x00",
        txn.sender.encode(),
        contract,
        txn.function.encode(),
        [_encode_scalar(arg) for arg in txn.args],
        reads,
        writes,
    ]
    if txn.rwset.deltas:
        item.append(
            [
                [address.encode(), _encode_scalar(_unsign_delta(txn.rwset.deltas[address]))]
                for address in sorted(txn.rwset.deltas)
            ]
        )
    return rlp_encode(item)


def decode_transaction(data: bytes) -> Transaction:
    """Parse the canonical transaction encoding."""
    item = rlp_decode(data)
    if not isinstance(item, list) or len(item) not in (7, 8):
        raise TransactionError("transaction encoding must be a 7- or 8-item list")
    txid_blob, sender, contract_blob, function, args, reads, writes = item[:7]
    deltas = item[7] if len(item) == 8 else []
    txid = int.from_bytes(txid_blob, "big")
    if not isinstance(contract_blob, bytes) or not contract_blob:
        raise TransactionError("malformed contract field")
    if contract_blob[:1] == _NO_CONTRACT:
        contract = None
    else:
        contract = contract_blob[1:].decode()
    return Transaction(
        txid=txid,
        sender=sender.decode(),
        contract=contract,
        function=function.decode(),
        args=tuple(_decode_scalar(arg) for arg in args),
        rwset=RWSet(
            reads={addr.decode(): _decode_scalar(val) for addr, val in reads},
            writes={addr.decode(): _decode_scalar(val) for addr, val in writes},
            deltas={
                addr.decode(): _resign_delta(_decode_scalar(val))
                for addr, val in deltas
            },
        ),
    )
