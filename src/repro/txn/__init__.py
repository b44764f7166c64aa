"""Transaction model: read/write sets and speculative execution results."""

from repro.txn.codec import decode_transaction, encode_transaction
from repro.txn.rwset import Address, RWSet
from repro.txn.simulation import (
    SimulationBatch,
    SimulationResult,
    SimulationStatus,
    batch_from_transactions,
)
from repro.txn.transaction import Transaction, make_transaction

__all__ = [
    "Address",
    "RWSet",
    "SimulationBatch",
    "SimulationResult",
    "SimulationStatus",
    "Transaction",
    "batch_from_transactions",
    "decode_transaction",
    "encode_transaction",
    "make_transaction",
]
