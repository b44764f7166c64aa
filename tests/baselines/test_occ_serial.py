"""Unit tests for the OCC and Serial baselines."""

from __future__ import annotations

from repro.analysis.certify import certify_epoch
from repro.baselines import OCCScheduler, SerialScheduler
from repro.txn import make_transaction
from repro.workload import SmallBankConfig, SmallBankWorkload, flatten_blocks


class TestOCC:
    def test_stale_reader_aborted(self):
        txns = [
            make_transaction(1, writes=["x"]),
            make_transaction(2, reads=["x"]),
        ]
        result = OCCScheduler().schedule(txns)
        assert result.schedule.aborted == (2,)

    def test_reader_before_writer_survives(self):
        txns = [
            make_transaction(1, reads=["x"]),
            make_transaction(2, writes=["x"]),
        ]
        result = OCCScheduler().schedule(txns)
        assert result.schedule.aborted == ()

    def test_blind_writes_allowed(self):
        txns = [
            make_transaction(1, writes=["x"]),
            make_transaction(2, writes=["x"]),
        ]
        result = OCCScheduler().schedule(txns)
        assert result.schedule.aborted == ()

    def test_occ_schedule_is_serializable(self):
        workload = SmallBankWorkload(SmallBankConfig(skew=0.8, seed=13))
        txns = flatten_blocks(workload.generate_blocks(2, 80))
        result = OCCScheduler().schedule(txns)
        certificate = certify_epoch(
            {t.txid: t.rwset for t in txns}, result.schedule, scheme="occ"
        )
        assert certificate.ok, certificate.summary()

    def test_high_contention_aborts_many(self):
        # Everything reads and writes one hot key: only the first survives.
        txns = [make_transaction(i, reads=["hot"], writes=["hot"]) for i in range(1, 11)]
        result = OCCScheduler().schedule(txns)
        assert result.schedule.committed == (1,)
        assert result.schedule.aborted_count == 9

    def test_empty_batch(self):
        result = OCCScheduler().schedule([])
        assert result.schedule.committed == ()


class TestSerial:
    def test_never_aborts(self):
        txns = [make_transaction(i, reads=["hot"], writes=["hot"]) for i in range(1, 6)]
        result = SerialScheduler().schedule(txns)
        assert result.schedule.aborted == ()
        assert result.schedule.committed == (1, 2, 3, 4, 5)

    def test_serial_groups(self):
        txns = [make_transaction(i, writes=[f"w{i}"]) for i in (3, 1)]
        result = SerialScheduler().schedule(txns)
        assert [g.txids for g in result.schedule.groups] == [(1,), (3,)]

    def test_empty_phase_dict(self):
        result = SerialScheduler().schedule([])
        assert result.phase_seconds() == {}
