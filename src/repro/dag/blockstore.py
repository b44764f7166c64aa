"""Persistent block storage over any key-value store.

The paper stores block data in LevelDB; this module provides the same
role over :class:`~repro.storage.api.KVStore` (use
:class:`~repro.storage.lsm.LSMStore` for durability).  Key space::

    b:<block-hash>         -> RLP([header-fields, [encoded txn, ...]])
    c:<chain>:<height>     -> block hash (chain position index)
    meta:state_root        -> last committed world-state root

which is enough to rebuild a :class:`~repro.dag.chain.ParallelChains`
after a restart (see :meth:`BlockStore.load_chains`).
"""

from __future__ import annotations

import struct
from typing import Sequence

from repro.dag.block import Block, BlockHeader
from repro.dag.chain import ParallelChains
from repro.dag.pow import PoWParams
from repro.errors import ChainError, StorageError
from repro.state.mpt.codec import rlp_decode, rlp_encode
from repro.storage.api import KVStore, WriteBatch
from repro.txn.codec import decode_transaction, encode_transaction


def encode_block(block: Block) -> bytes:
    """Serialise a full block (header plus body) to canonical bytes."""
    header = block.header
    header_item = [
        struct.pack("<I", header.chain_id),
        struct.pack("<I", header.height),
        header.parent,
        header.state_root,
        header.tx_root,
        header.tips_digest,
        header.miner.encode(),
        struct.pack("<Q", header.nonce),
    ]
    body = [encode_transaction(txn) for txn in block.transactions]
    return rlp_encode([header_item, body])


def decode_block(data: bytes) -> Block:
    """Parse the canonical block encoding."""
    item = rlp_decode(data)
    if not isinstance(item, list) or len(item) != 2:
        raise ChainError("block encoding must be a two-item list")
    header_item, body = item
    if len(header_item) != 8:
        raise ChainError("block header must have 8 fields")
    (chain_id_blob, height_blob, parent, state_root, tx_root, tips, miner, nonce_blob) = header_item
    header = BlockHeader(
        chain_id=struct.unpack("<I", chain_id_blob)[0],
        height=struct.unpack("<I", height_blob)[0],
        parent=parent,
        state_root=state_root,
        tx_root=tx_root,
        tips_digest=tips,
        miner=miner.decode(),
        nonce=struct.unpack("<Q", nonce_blob)[0],
    )
    transactions = tuple(decode_transaction(blob) for blob in body)
    return Block(header=header, transactions=transactions)


class BlockStore:
    """Durable block archive with chain-position indexing."""

    def __init__(self, store: KVStore) -> None:
        self._store = store

    def put_blocks(self, blocks: Sequence[Block]) -> None:
        """Persist blocks and their chain-position index in one atomic
        write (a node archives each epoch's accepted blocks this way)."""
        batch = WriteBatch()
        for block in blocks:
            batch.put(b"b:" + block.hash, encode_block(block))
            batch.put(self._position_key(block.chain_id, block.height), block.hash)
        self._store.write(batch)

    def get_block(self, block_hash: bytes) -> Block | None:
        """Fetch a block by hash, or ``None``."""
        data = self._store.get(b"b:" + block_hash)
        return None if data is None else decode_block(data)

    def block_at(self, chain_id: int, height: int) -> Block | None:
        """Fetch the block at a chain position, or ``None``."""
        block_hash = self._store.get(self._position_key(chain_id, height))
        if block_hash is None:
            return None
        block = self.get_block(block_hash)
        if block is None:
            raise StorageError(f"missing indexed block chain={chain_id} height={height}")
        return block

    def epoch_blocks(self, height: int, chain_count: int) -> list[Block]:
        """The archived blocks of epoch ``height``, in chain order."""
        blocks = (self.block_at(chain_id, height) for chain_id in range(chain_count))
        return [block for block in blocks if block is not None]

    def set_state_root(self, root: bytes) -> None:
        """Record the latest committed world-state root."""
        self._store.put(b"meta:state_root", root)

    def state_root(self) -> bytes | None:
        """The recorded world-state root, or ``None`` on a fresh store."""
        return self._store.get(b"meta:state_root")

    def load_chains(
        self,
        chain_count: int,
        pow_params: PoWParams | None = None,
        epochs: int | None = None,
    ) -> ParallelChains:
        """Rebuild the parallel chains from the first ``epochs`` archived
        epochs (all by default), in epoch-major order through full
        validation, so a tampered archive fails loudly."""
        chains = ParallelChains(
            chain_count=chain_count,
            pow_params=pow_params if pow_params is not None else PoWParams(),
        )
        height = 0
        while (epochs is None or height < epochs) and (
            blocks := self.epoch_blocks(height, chain_count)
        ):
            for block in blocks:
                chains.append(block)
            height += 1
        return chains

    @staticmethod
    def _position_key(chain_id: int, height: int) -> bytes:
        return f"c:{chain_id:04d}:{height:08d}".encode()
