"""Property tests for commutative delta folding (operation-level CC).

Delta units only ever relax write-write conflicts; they must never
change what a committed schedule *means*.  Three families of
properties pin that down:

* folding committed deltas is permutation-invariant — any input order
  of a batch commits to the same state root;
* an address carrying both plain writes and deltas falls back to
  conflict semantics — the schedule stays serializable and the fold
  equals a serial walk of the schedule;
* the commit-time over/underflow guard aborts deterministically, as a
  whole-transaction effect.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.analysis.certify import certify_epoch
from repro.core import NezhaScheduler
from repro.node.committer import Committer
from repro.state import StateDB
from repro.txn import RWSet, make_transaction
from repro.vm.opcodes import WORD_MASK

ADDRESSES = [f"h{i}" for i in range(4)]
INITIAL = 1_000


@st.composite
def delta_batches(draw, max_size=30):
    """Conflict-heavy batches mixing plain writes, deltas, and reads.

    Each transaction assigns every hot address at most one role, so the
    generated rwsets respect the reads/writes/deltas disjointness the
    logger guarantees.
    """
    size = draw(st.integers(min_value=1, max_value=max_size))
    txns = []
    for txid in range(1, size + 1):
        reads, writes, deltas = {}, {}, {}
        for i, address in enumerate(ADDRESSES):
            role = draw(st.sampled_from(["none", "read", "write", "delta"]))
            if role == "read":
                reads[address] = None
            elif role == "write":
                writes[address] = txid * 1000 + i
            elif role == "delta":
                deltas[address] = draw(
                    st.integers(min_value=-5, max_value=5).filter(bool)
                )
        txns.append(
            make_transaction(txid, reads=reads, writes=writes, deltas=deltas)
        )
    return txns


def seeded_state():
    state = StateDB()
    state.seed({address: INITIAL for address in ADDRESSES})
    return state


def commit_batch(txns, state=None):
    """Schedule and commit a declared batch; returns (schedule, report)."""
    state = state or seeded_state()
    result = NezhaScheduler().schedule(txns)
    write_values = {t.txid: dict(t.rwset.writes) for t in txns}
    delta_values = {t.txid: dict(t.rwset.deltas) for t in txns}
    report = Committer().commit(
        result.schedule, write_values, state, delta_values=delta_values
    )
    return result, report, state


def fold_oracle(txns, schedule, guard_aborted):
    """Independent serial walk of the schedule: replace writes, add deltas."""
    by_id = {t.txid: t for t in txns}
    values = {address: INITIAL for address in ADDRESSES}
    skipped = set(guard_aborted)
    for group in schedule.iter_groups():
        for txid in group.txids:
            if txid in skipped:
                continue
            txn = by_id[txid]
            for address, value in txn.rwset.writes.items():
                values[address] = value
            for address, delta in txn.rwset.deltas.items():
                values[address] += delta
    return values


@settings(max_examples=80, deadline=None)
@given(delta_batches())
def test_fold_is_permutation_invariant(txns):
    _, baseline, _ = commit_batch(txns)
    for seed in range(3):
        shuffled = txns[:]
        random.Random(seed).shuffle(shuffled)
        _, again, _ = commit_batch(shuffled)
        assert again.state_root == baseline.state_root
        assert again.guard_aborted == baseline.guard_aborted
        assert again.delta_commuted == baseline.delta_commuted


@settings(max_examples=80, deadline=None)
@given(delta_batches())
def test_committed_state_equals_serial_fold(txns):
    result, report, state = commit_batch(txns)
    expected = fold_oracle(txns, result.schedule, report.guard_aborted)
    for address in ADDRESSES:
        assert state.get(address) == expected[address]


@settings(max_examples=80, deadline=None)
@given(delta_batches())
def test_mixed_batches_stay_serializable(txns):
    """Plain writes alongside deltas fall back to conflict semantics."""
    result = NezhaScheduler().schedule(txns)
    certificate = certify_epoch({t.txid: t.rwset for t in txns}, result.schedule)
    assert certificate.ok, certificate.summary()


class TestMixedFallback:
    def test_merge_downgrades_overlapping_delta(self):
        """A delta colliding with a plain write inside one transaction
        downgrades to the read-modify-write it abbreviates."""
        base = RWSet(reads={}, writes={"h0": 7}, deltas={})
        merged = base.merged_with(RWSet(reads={}, writes={}, deltas={"h0": 3}))
        assert "h0" not in merged.deltas
        assert "h0" in merged.writes

    def test_plain_writer_never_shares_delta_sequence(self):
        txns = [
            make_transaction(1, deltas={"h0": 1}),
            make_transaction(2, deltas={"h0": 2}),
            make_transaction(3, writes={"h0": 99}),
        ]
        result = NezhaScheduler().schedule(txns)
        sequences = result.schedule.sequences()
        committed = set(result.schedule.committed)
        delta_seqs = {sequences[t] for t in (1, 2) if t in committed}
        if 3 in committed and delta_seqs:
            assert sequences[3] not in delta_seqs

    def test_pure_delta_hot_key_commits_everything(self):
        """All-delta contention on one key is conflict-free by design."""
        txns = [
            make_transaction(txid, deltas={"h0": txid}) for txid in range(1, 21)
        ]
        result, report, state = commit_batch(txns)
        assert result.schedule.aborted == ()
        assert report.guard_aborted == ()
        assert report.committed_count == 20
        assert state.get("h0") == INITIAL + sum(range(1, 21))
        assert report.delta_commuted == 20


class TestOverflowGuard:
    def run_guarded(self, txns, initial):
        state = StateDB()
        state.seed({address: initial for address in ADDRESSES})
        result = NezhaScheduler().schedule(txns)
        report = Committer().commit(
            result.schedule,
            {t.txid: dict(t.rwset.writes) for t in txns},
            state,
            delta_values={t.txid: dict(t.rwset.deltas) for t in txns},
        )
        return result, report, state

    def test_overflow_aborts_whole_transaction(self):
        txns = [
            make_transaction(1, deltas={"h0": 5}),
            make_transaction(2, deltas={"h0": 10}, writes={"h1": 42}),
        ]
        _, report, state = self.run_guarded(txns, WORD_MASK - 7)
        assert report.guard_aborted == (2,)
        # The aborted transaction's plain writes are skipped too.
        assert state.get("h1") == WORD_MASK - 7
        assert state.get("h0") == WORD_MASK - 2

    def test_underflow_aborts(self):
        txns = [make_transaction(1, deltas={"h0": -3})]
        _, report, state = self.run_guarded(txns, 2)
        assert report.guard_aborted == (1,)
        assert report.committed_count == 0
        assert state.get("h0") == 2

    def test_guard_is_deterministic(self):
        rng = random.Random(9)
        txns = [
            make_transaction(
                txid, deltas={"h0": rng.choice([-4, -1, 3, 6]) * 10**18}
            )
            for txid in range(1, 31)
        ]
        runs = [self.run_guarded(txns, 10**18) for _ in range(2)]
        (_, first, state_a), (_, second, state_b) = runs
        assert first.guard_aborted == second.guard_aborted
        assert first.state_root == second.state_root
        assert state_a.get("h0") == state_b.get("h0")
        # Contention this heavy must actually exercise the guard.
        assert first.guard_aborted
