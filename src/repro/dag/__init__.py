"""DAG-based blockchain substrate (OHIE-style parallel chains)."""

from repro.dag.block import (
    Block,
    BlockHeader,
    GENESIS_HASH,
    tips_digest,
    transactions_root,
)
from repro.dag.blockstore import BlockStore, decode_block, encode_block
from repro.dag.chain import ParallelChains
from repro.dag.epochs import Epoch, extract_epoch
from repro.dag.mempool import Mempool
from repro.dag.ohie import EpochCoordinator
from repro.dag.pow import PoWParams, chain_assignment, meets_target, mine

__all__ = [
    "Block",
    "BlockHeader",
    "BlockStore",
    "Epoch",
    "EpochCoordinator",
    "GENESIS_HASH",
    "Mempool",
    "ParallelChains",
    "PoWParams",
    "chain_assignment",
    "decode_block",
    "encode_block",
    "extract_epoch",
    "meets_target",
    "mine",
    "tips_digest",
    "transactions_root",
]
