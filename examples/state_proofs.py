#!/usr/bin/env python
"""Authenticated state: Merkle proofs, light clients, and history.

The state substrate is more than a map — it is *authenticated*: every
epoch's state root commits to every account balance.  This demo shows
the three things that buys you:

1. a full node hands a light client a balance plus a Merkle proof; the
   client verifies it against just the 32-byte state root;
2. tampered proofs and forged values are rejected;
3. every earlier epoch's root stays readable: the copy-on-write trie
   answers historical reads.

Run:  python examples/state_proofs.py
"""

from __future__ import annotations

from repro.core import NezhaScheduler
from repro.errors import ProofError
from repro.node import Committer, ConcurrentExecutor
from repro.state import KVNodeMapping, NodeStore, StateDB, decode_int, verify_proof
from repro.state.mpt import MerklePatriciaTrie
from repro.storage import KVStore, MemStore
from repro.vm.contracts import default_registry
from repro.workload import SmallBankConfig, SmallBankWorkload, flatten_blocks, initial_state

CONFIG = SmallBankConfig(account_count=500, skew=0.4, seed=21)


def run_epochs(state: StateDB, epochs: int) -> list[bytes]:
    """Advance the chain state a few epochs; returns the roots."""
    workload = SmallBankWorkload(CONFIG)
    executor = ConcurrentExecutor(registry=default_registry())
    roots = []
    for _ in range(epochs):
        transactions = flatten_blocks(workload.generate_blocks(2, 50))
        batch = executor.execute_batch(transactions, state.snapshot().get)
        result = NezhaScheduler().schedule(batch.transactions())
        report = Committer().commit(result.schedule, batch.write_values(), state)
        roots.append(report.state_root)
    return roots


def light_client_demo(store: KVStore, root: bytes) -> None:
    print("=== Light-client balance verification ===")
    # The full node opens the trie over the store its state seals into.
    trie = MerklePatriciaTrie(store=NodeStore(KVNodeMapping(store)), root=root)
    address = b"chk:000007"
    proof = trie.prove(address)
    print(f"  full node: balance of {address.decode()} with a "
          f"{len(proof)}-node proof ({sum(len(n) for n in proof)} bytes)")

    # The light client holds ONLY the root.
    value = verify_proof(root, address, proof)
    print(f"  light client: verified balance = {decode_int(value)} "
          f"against root {root.hex()[:12]}...")

    # Exclusion proof: an account that does not exist.
    ghost = b"chk:999999"
    assert verify_proof(root, ghost, trie.prove(ghost)) is None
    print(f"  light client: verified {ghost.decode()} does NOT exist")

    # Forged proofs fail loudly.
    try:
        verify_proof(root, address, [bytes(reversed(n)) for n in proof])
    except ProofError:
        print("  tampered proof: REJECTED (hash mismatch)")
    try:
        verify_proof(b"\x13" * 32, address, proof)
    except ProofError:
        print("  wrong root:     REJECTED")


def history_demo(state: StateDB, roots: list[bytes]) -> None:
    print("\n=== Historical reads ===")
    for epoch, root in enumerate(roots):
        balance = state.snapshot(root).get("chk:000007")
        print(f"  epoch {epoch} root {root.hex()[:12]}...: chk:000007 = {balance}")


def main() -> None:
    store = MemStore()
    state = StateDB(store=store)
    state.seed(initial_state(CONFIG))
    roots = run_epochs(state, epochs=4)
    print(f"processed 4 epochs; roots: {[r.hex()[:10] for r in roots]}\n")
    light_client_demo(store, roots[-1])
    history_demo(state, roots)


if __name__ == "__main__":
    main()
