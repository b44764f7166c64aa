"""Per-batch interning of addresses and transaction ids to dense ints.

The concurrency-control hot path (rank division, transaction sorting,
validation) spends most of its time hashing address strings and copying
per-vertex sets when it runs on the string-keyed reference structures.
The fast path instead interns every address and txid to a contiguous
integer *once* per batch and runs every later phase on flat arrays
indexed by those ids.

Two properties make the dense pipeline bit-identical to the reference
one (see ``tests/core/test_fastpath.py``):

* address ids are assigned in **sorted address order**, so comparing two
  ids is equivalent to comparing the two address strings — every
  "smallest address wins" tie-break in Algorithm 1 picks the same vertex;
* transaction indices are assigned in **ascending txid order**, so the
  deterministic write-write ordering rule (ascending txid) is preserved
  by plain integer comparison.

Interning also splits off the batch's **isolated** transactions: those
whose every read, write and delta address is touched by no other
transaction of the batch.  An isolated transaction adds no dependency, so
full Nezha would commit it at the first sequence number whatever the rest
of the batch does; it is recorded in ``isolated`` and never numbered.
Every dense id above ranges over the remaining transactions and the
addresses they touch only.

The mapping back to strings is applied only at the ``Schedule`` boundary.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, compress
from operator import not_
from typing import Iterable, Sequence

from repro.errors import SchedulingError
from repro.txn.rwset import Address
from repro.txn.transaction import Transaction


@dataclass
class InternedBatch:
    """Dense-id views of one batch of transactions.

    Attributes
    ----------
    transactions:
        The batch's non-isolated transactions in ascending txid order; a
        transaction's position in this list is its dense index.
    txids:
        Dense index -> txid (ascending).
    txn_index:
        txid -> dense index.
    addresses:
        Dense address id -> address string, in sorted address order.
    addr_ids:
        Address string -> dense address id.
    isolated:
        Txids (ascending) of the transactions that share no address with
        any other transaction of the batch; they have no dense index.
    """

    transactions: list[Transaction]
    txids: list[int]
    txn_index: dict[int, int]
    addresses: list[Address]
    addr_ids: dict[Address, int]
    isolated: list[int]

    @property
    def txn_count(self) -> int:
        """Number of non-isolated transactions (dense indices 0..N-1)."""
        return len(self.transactions)

    @property
    def addr_count(self) -> int:
        """Number of distinct addresses the non-isolated transactions touch."""
        return len(self.addresses)

    def address_of(self, addr_id: int) -> Address:
        """The address string for a dense address id."""
        return self.addresses[addr_id]

    def txid_of(self, index: int) -> int:
        """The txid for a dense transaction index."""
        return self.txids[index]


def intern_batch(
    transactions: Sequence[Transaction] | Iterable[Transaction],
) -> InternedBatch:
    """Intern one batch: sort by txid, reject duplicates, split off the
    isolated transactions, number the rest and their addresses.

    Runs in ``O(N log N + u * N + U log U)`` for ``N`` transactions with
    ``u`` units touching ``U`` distinct addresses; the classification is
    one C-level count over the per-transaction footprints.
    """
    ordered = sorted(transactions, key=lambda t: t.txid)
    txids = [txn.txid for txn in ordered]
    if len(set(txids)) != len(txids):
        duplicate = next(a for a, b in zip(txids, txids[1:]) if a == b)
        raise SchedulingError(f"duplicate txid {duplicate} in batch")
    footprints = [
        {*txn.rwset.reads, *txn.rwset.writes, *txn.rwset.deltas} for txn in ordered
    ]
    touches = Counter(chain.from_iterable(footprints))
    shared = {address for address, count in touches.items() if count > 1}
    lone = list(map(shared.isdisjoint, footprints))
    isolated = list(compress(txids, lone))
    if isolated:
        kept = list(map(not_, lone))
        ordered = list(compress(ordered, kept))
        txids = list(compress(txids, kept))
        addresses = sorted(touches.keys() - set().union(*compress(footprints, lone)))
    else:
        addresses = sorted(touches)
    return InternedBatch(
        transactions=ordered,
        txids=txids,
        txn_index={txid: index for index, txid in enumerate(txids)},
        addresses=addresses,
        addr_ids={address: i for i, address in enumerate(addresses)},
        isolated=isolated,
    )
