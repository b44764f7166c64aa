"""Account state: a flat dict sealed into an MPT once per epoch."""

from repro.state.account import Account, decode_int, encode_int
from repro.state.mpt import EMPTY_ROOT, MerklePatriciaTrie, NodeStore, verify_proof
from repro.state.statedb import KVNodeMapping, StateDB, StateSnapshot

FlatStateDB = StateDB
"""Former name of :class:`StateDB`, kept because ``benchmarks/e2e`` imports it."""

__all__ = [
    "Account",
    "FlatStateDB",
    "EMPTY_ROOT",
    "KVNodeMapping",
    "MerklePatriciaTrie",
    "NodeStore",
    "StateDB",
    "StateSnapshot",
    "decode_int",
    "encode_int",
    "verify_proof",
]
