"""Address-based Conflict Graph (ACG) construction.

Definition 4 of the paper: the ACG is a directed graph whose vertices are
the per-address read/write sets ``RW_j`` and whose edges connect the
write-address to the read-address of every transaction that writes one
address and reads another (``(RW_i, RW_j)`` when some ``T_v`` has
``T_v^W in RW_i`` and ``T_v^R in RW_j``).

Construction maps each transaction's units to its addresses once, so the
whole graph is built in ``O(u * N)`` for ``N`` transactions with ``u``
units each — this is the paper's answer to the quadratic pairwise
comparison of the conventional conflict graph.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Iterator

from repro.core.interner import InternedBatch
from repro.core.units import AddressRWList
from repro.errors import SchedulingError
from repro.txn.rwset import Address


@dataclass
class ACG:
    """String-keyed view of one batch's address-based conflict graph.

    In the package only :meth:`DenseACG.to_acg` (``NezhaResult.acg``)
    builds one — for the DOT export, the quickstart and tests; scheduling
    never reads it.

    Attributes
    ----------
    rw_lists:
        Mapping from address to its ordered read/write set ``RW_j``.
    out_edges / in_edges:
        Simple (deduplicated) address-dependency adjacency.  An edge
        ``A_i -> A_j`` means ``A_i`` is dependent on ``A_j``
        (``A_i -->* A_j`` in the paper): some transaction writes ``A_i``
        and reads ``A_j``.
    edge_multiplicity:
        How many distinct transactions induced each edge; exposed for
        analysis and benchmarks.
    """

    rw_lists: dict[Address, AddressRWList] = field(default_factory=dict)
    out_edges: dict[Address, set[Address]] = field(default_factory=dict)
    in_edges: dict[Address, set[Address]] = field(default_factory=dict)
    edge_multiplicity: dict[tuple[Address, Address], int] = field(default_factory=dict)
    txn_count: int = 0

    @property
    def addresses(self) -> list[Address]:
        """All accessed addresses, in sorted (deterministic) order."""
        return sorted(self.rw_lists)

    def rw(self, address: Address) -> AddressRWList:
        """Return ``RW_j`` for the given address."""
        try:
            return self.rw_lists[address]
        except KeyError:
            raise SchedulingError(f"address {address!r} not present in ACG") from None

    def iter_edges(self) -> Iterator[tuple[Address, Address]]:
        """Yield all distinct edges in deterministic order."""
        for src in sorted(self.out_edges):
            for dst in sorted(self.out_edges[src]):
                yield src, dst


# ---------------------------------------------------------------------------
# CSR adjacency over interned ids
# ---------------------------------------------------------------------------


def _csr(lists: list[list[int]]) -> tuple[array, array]:
    """Flatten a list-of-lists into (indptr, indices) ``array('q')`` pairs."""
    indptr = array("q", [0])
    indices = array("q")
    for row in lists:
        indices.extend(row)
        indptr.append(len(indices))
    return indptr, indices


@dataclass
class DenseACG:
    """The ACG of one batch on dense integer ids, stored CSR-style.

    Only the batch's non-isolated transactions and the addresses they
    touch are vertices and units; the isolated ones are listed in
    ``batch.isolated`` (see :func:`~repro.core.interner.intern_batch`).

    Every structure is a parallel ``(indptr, indices)`` pair of flat
    ``array('q')`` buffers — no per-vertex dicts or sets, so the sorting
    and validation passes iterate plain integer slices.

    * ``read_indptr/read_txns``, ``write_indptr/write_txns`` and
      ``delta_indptr/delta_txns`` are the per-address unit lists ``RW_j``
      (dense txn indices, ascending — the paper's deterministic unit
      order);
    * ``out_indptr/out_ids`` and ``in_indptr/in_ids`` are the
      deduplicated address-dependency adjacency (sorted successor ids);
    * ``txn_read_indptr/txn_read_addrs`` and the write twins are the
      transpose: each transaction's touched address ids, used by the
      reordering enhancement and the resurrection pass.

    Edge multiplicities are kept in a single int-keyed dict
    (``src * addr_count + dst``) so :meth:`to_acg` can materialise the
    exact string-keyed :class:`ACG` on demand.
    """

    batch: InternedBatch
    read_indptr: array
    read_txns: array
    write_indptr: array
    write_txns: array
    delta_indptr: array
    delta_txns: array
    out_indptr: array
    out_ids: array
    in_indptr: array
    in_ids: array
    txn_read_indptr: array
    txn_read_addrs: array
    txn_write_indptr: array
    txn_write_addrs: array
    txn_delta_indptr: array
    txn_delta_addrs: array
    edge_mult: dict[int, int] = field(default_factory=dict)

    @property
    def addr_count(self) -> int:
        """Number of distinct addresses (dense address ids are 0..A-1)."""
        return self.batch.addr_count

    @property
    def txn_count(self) -> int:
        """Number of transactions (dense txn indices are 0..N-1)."""
        return self.batch.txn_count

    @property
    def unit_count(self) -> int:
        """Total number of read, write, and delta units across all addresses."""
        return len(self.read_txns) + len(self.write_txns) + len(self.delta_txns)

    def reads_of(self, addr_id: int) -> array:
        """Dense txn indices reading ``addr_id`` (ascending)."""
        return self.read_txns[self.read_indptr[addr_id] : self.read_indptr[addr_id + 1]]

    def writes_of(self, addr_id: int) -> array:
        """Dense txn indices writing ``addr_id`` (ascending)."""
        return self.write_txns[
            self.write_indptr[addr_id] : self.write_indptr[addr_id + 1]
        ]

    def deltas_of(self, addr_id: int) -> array:
        """Dense txn indices applying deltas to ``addr_id`` (ascending)."""
        return self.delta_txns[
            self.delta_indptr[addr_id] : self.delta_indptr[addr_id + 1]
        ]

    def write_count_of(self, txn_idx: int) -> int:
        """Number of plain write units of transaction ``txn_idx``."""
        return self.txn_write_indptr[txn_idx + 1] - self.txn_write_indptr[txn_idx]

    def to_acg(self) -> ACG:
        """Materialise the equivalent string-keyed :class:`ACG`.

        Unit order, adjacency and multiplicities translate id for id, so
        the view equals the reference ``build_acg`` in
        ``tests/reference.py`` on the same batch; used when a caller wants
        the address-keyed graph after a scheduling run
        (``NezhaResult.acg``).
        """
        batch = self.batch
        addresses = batch.addresses
        txids = batch.txids
        acg = ACG(txn_count=batch.txn_count)
        for addr_id, address in enumerate(addresses):
            rw = AddressRWList(address)
            rw.reads = [txids[t] for t in self.reads_of(addr_id)]
            rw.writes = [txids[t] for t in self.writes_of(addr_id)]
            rw.deltas = [txids[t] for t in self.deltas_of(addr_id)]
            acg.rw_lists[address] = rw
        addr_count = len(addresses)
        for key, count in self.edge_mult.items():
            src = addresses[key // addr_count]
            dst = addresses[key % addr_count]
            acg.edge_multiplicity[(src, dst)] = count
            acg.out_edges.setdefault(src, set()).add(dst)
            acg.in_edges.setdefault(dst, set()).add(src)
        return acg


def build_dense_acg(batch: InternedBatch) -> DenseACG:
    """Build the CSR-form ACG for an interned batch.

    One pass over transactions in ascending id order, ``O(u * N)`` for
    units plus ``O(|RS| * |WS|)`` per transaction for edges; every address
    lookup is a single dict hit and every list is integer-only.
    """
    addr_ids = batch.addr_ids
    addr_count = batch.addr_count
    reads_by_addr: list[list[int]] = [[] for _ in range(addr_count)]
    writes_by_addr: list[list[int]] = [[] for _ in range(addr_count)]
    deltas_by_addr: list[list[int]] = [[] for _ in range(addr_count)]
    out_lists: list[list[int]] = [[] for _ in range(addr_count)]
    in_lists: list[list[int]] = [[] for _ in range(addr_count)]
    edge_mult: dict[int, int] = {}
    txn_reads: list[list[int]] = []
    txn_writes: list[list[int]] = []
    txn_deltas: list[list[int]] = []
    for txn_idx, txn in enumerate(batch.transactions):
        read_ids = [addr_ids[a] for a in txn.rwset.reads]
        write_ids = [addr_ids[a] for a in txn.rwset.writes]
        delta_ids = [addr_ids[a] for a in txn.rwset.deltas]
        txn_reads.append(read_ids)
        txn_writes.append(write_ids)
        txn_deltas.append(delta_ids)
        for addr_id in read_ids:
            reads_by_addr[addr_id].append(txn_idx)
        for addr_id in write_ids:
            writes_by_addr[addr_id].append(txn_idx)
        for addr_id in delta_ids:
            deltas_by_addr[addr_id].append(txn_idx)
        for write_id in write_ids + delta_ids:
            base = write_id * addr_count
            for read_id in read_ids:
                if write_id == read_id:
                    continue
                key = base + read_id
                count = edge_mult.get(key, 0)
                edge_mult[key] = count + 1
                if count == 0:
                    out_lists[write_id].append(read_id)
                    in_lists[read_id].append(write_id)
    for row in out_lists:
        row.sort()
    for row in in_lists:
        row.sort()
    read_indptr, read_txns = _csr(reads_by_addr)
    write_indptr, write_txns = _csr(writes_by_addr)
    delta_indptr, delta_txns = _csr(deltas_by_addr)
    out_indptr, out_ids = _csr(out_lists)
    in_indptr, in_ids = _csr(in_lists)
    txn_read_indptr, txn_read_addrs = _csr(txn_reads)
    txn_write_indptr, txn_write_addrs = _csr(txn_writes)
    txn_delta_indptr, txn_delta_addrs = _csr(txn_deltas)
    return DenseACG(
        batch=batch,
        read_indptr=read_indptr,
        read_txns=read_txns,
        write_indptr=write_indptr,
        write_txns=write_txns,
        delta_indptr=delta_indptr,
        delta_txns=delta_txns,
        out_indptr=out_indptr,
        out_ids=out_ids,
        in_indptr=in_indptr,
        in_ids=in_ids,
        txn_read_indptr=txn_read_indptr,
        txn_read_addrs=txn_read_addrs,
        txn_write_indptr=txn_write_indptr,
        txn_write_addrs=txn_write_addrs,
        txn_delta_indptr=txn_delta_indptr,
        txn_delta_addrs=txn_delta_addrs,
        edge_mult=edge_mult,
    )
