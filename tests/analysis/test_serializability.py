"""Serializability verdicts of ``certify_epoch`` on ``Schedule`` objects.

``certify_epoch`` is the one serializability checker the package ships;
its second opinion is ``tests.reference.replays_serially``, a brute-force
search over serial orders that shares no code with it.  The two must
agree on every schedule — the schemes' own and arbitrary regroupings.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.analysis.certify import certify_epoch
from repro.baselines import CGScheduler, OCCScheduler
from repro.core import CommitGroup, NezhaScheduler, Schedule
from repro.txn import RWSet, Transaction, make_transaction
from repro.workload import SmallBankConfig, SmallBankWorkload, flatten_blocks

from tests.reference import replays_serially

ADDRESSES = ["a", "b", "c", "d"]


def certify(txns, schedule, scheme="nezha"):
    return certify_epoch({t.txid: t.rwset for t in txns}, schedule, scheme=scheme)


class TestCertifier:
    def test_valid_schedule_certified(self):
        txns = [
            make_transaction(1, reads=["x"]),
            make_transaction(2, writes=["x"]),
        ]
        schedule = Schedule(
            groups=(CommitGroup(1, (1,)), CommitGroup(2, (2,)))
        )
        certificate = certify(txns, schedule)
        assert certificate.ok
        assert "CERTIFIED" in certificate.summary()

    def test_reader_after_writer_rejected(self):
        txns = [
            make_transaction(1, reads=["x"]),
            make_transaction(2, writes=["x"]),
        ]
        schedule = Schedule(
            groups=(CommitGroup(1, (2,)), CommitGroup(2, (1,)))
        )
        assert set(certify(txns, schedule).finding_counts) == {"CERT111"}

    def test_conflicting_group_rejected(self):
        txns = [
            make_transaction(1, writes=["x"]),
            make_transaction(2, writes=["x"]),
        ]
        schedule = Schedule(groups=(CommitGroup(1, (1, 2)),))
        assert set(certify(txns, schedule).finding_counts) == {"CERT112"}

    def test_read_read_group_allowed(self):
        txns = [
            make_transaction(1, reads=["x"]),
            make_transaction(2, reads=["x"]),
        ]
        schedule = Schedule(groups=(CommitGroup(1, (1, 2)),))
        assert certify(txns, schedule).ok

    def test_unknown_txid_rejected(self):
        schedule = Schedule(groups=(CommitGroup(1, (99,)),))
        certificate = certify([], schedule)
        assert not certificate.ok
        assert certificate.findings[0].code == "CERT101"
        assert certificate.findings[0].txids == (99,)

    def test_self_rw_not_a_violation(self):
        txns = [make_transaction(1, reads=["x"], writes=["x"])]
        schedule = Schedule(groups=(CommitGroup(1, (1,)),))
        assert certify(txns, schedule).ok

    def test_dependency_edges_counted(self):
        txns = [
            make_transaction(1, reads=["x"]),
            make_transaction(2, writes=["x"]),
            make_transaction(3, writes=["x"]),
        ]
        schedule = Schedule(
            groups=(CommitGroup(1, (1,)), CommitGroup(2, (2,)), CommitGroup(3, (3,)))
        )
        # rw edges: (1,2), (1,3); ww edge: (2,3).
        assert certify(txns, schedule).conflict_edges == 3


@st.composite
def regrouped_batches(draw):
    """A batch of at most 7 transactions and an arbitrary schedule of it.

    Each transaction reads, writes and adds deltas to a few of four
    addresses (a delta address is never one it reads or writes), then
    lands in one of three commit groups or aborts.
    """
    txns = []
    slots: dict[int, list[int]] = {}
    aborted = []
    for txid in range(1, draw(st.integers(min_value=1, max_value=7)) + 1):
        reads = draw(st.lists(st.sampled_from(ADDRESSES), max_size=2, unique=True))
        writes = draw(st.lists(st.sampled_from(ADDRESSES), max_size=2, unique=True))
        free = [a for a in ADDRESSES if a not in reads and a not in writes]
        deltas = draw(st.lists(st.sampled_from(free), max_size=1)) if free else []
        txns.append(
            Transaction(
                txid=txid,
                rwset=RWSet(
                    reads={a: None for a in reads},
                    writes={a: txid for a in writes},
                    deltas={a: txid for a in deltas},
                ),
            )
        )
        slot = draw(st.integers(min_value=0, max_value=3))
        if slot:
            slots.setdefault(slot, []).append(txid)
        else:
            aborted.append(txid)
    schedule = Schedule(
        groups=tuple(CommitGroup(slot, tuple(slots[slot])) for slot in sorted(slots)),
        aborted=tuple(aborted),
    )
    return txns, schedule


class TestCrossValidation:
    """The certifier, the brute force and the schemes must all agree."""

    def test_nezha_schedules_certified(self):
        for skew in (0.3, 0.9):
            workload = SmallBankWorkload(SmallBankConfig(skew=skew, seed=50))
            txns = flatten_blocks(workload.generate_blocks(2, 80))
            certificate = certify(txns, NezhaScheduler().schedule(txns).schedule)
            assert certificate.ok, certificate.summary()

    def test_cg_and_occ_schedules_certified(self):
        workload = SmallBankWorkload(SmallBankConfig(skew=0.7, seed=51))
        txns = flatten_blocks(workload.generate_blocks(2, 60))
        for scheme in (CGScheduler(), OCCScheduler()):
            certificate = certify(txns, scheme.schedule(txns).schedule, scheme.name)
            assert certificate.ok, certificate.summary()

    @settings(max_examples=150, deadline=None)
    @given(regrouped_batches())
    def test_certifier_agrees_with_order_search(self, batch):
        txns, schedule = batch
        by_id = {t.txid: t for t in txns}
        nezha = NezhaScheduler().schedule(txns).schedule
        for candidate in (nezha, schedule):
            groups = [group.txids for group in candidate.groups]
            assert certify(txns, candidate).ok == replays_serially(by_id, groups)
        assert certify(txns, nezha).ok
