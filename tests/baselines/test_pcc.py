"""Unit and integration tests for the PCC (ordered locking) baseline."""

from __future__ import annotations

from repro.baselines import PCCScheduler
from repro.txn import make_transaction
from repro.workload import SmallBankConfig, SmallBankWorkload, flatten_blocks


class TestWaveAssignment:
    def test_never_aborts(self):
        txns = [make_transaction(i, reads=["hot"], writes=["hot"]) for i in range(1, 8)]
        result = PCCScheduler().schedule(txns)
        assert result.schedule.aborted == ()
        assert result.schedule.committed_count == 7

    def test_non_conflicting_share_a_wave(self):
        txns = [make_transaction(i, writes=[f"w{i}"]) for i in range(1, 6)]
        result = PCCScheduler().schedule(txns)
        assert len(result.schedule.groups) == 1

    def test_writers_serialise_on_hot_address(self):
        txns = [make_transaction(i, writes=["hot"]) for i in range(1, 5)]
        result = PCCScheduler().schedule(txns)
        # Exclusive write locks: one wave per writer.
        assert len(result.schedule.groups) == 4
        assert result.schedule.committed == (1, 2, 3, 4)

    def test_readers_share_then_writer_waits(self):
        txns = [
            make_transaction(1, reads=["x"]),
            make_transaction(2, reads=["x"]),
            make_transaction(3, writes=["x"]),
        ]
        waves = PCCScheduler().schedule(txns).schedule.sequences()
        assert waves[1] == waves[2] == 1
        assert waves[3] == 2

    def test_reader_after_writer_waits(self):
        txns = [
            make_transaction(1, writes=["x"]),
            make_transaction(2, reads=["x"]),
        ]
        waves = PCCScheduler().schedule(txns).schedule.sequences()
        assert waves[1] == 1
        assert waves[2] == 2

    def test_wave_respects_id_order_on_conflict(self):
        # Later ids never get an earlier wave than a conflicting earlier id.
        txns = [
            make_transaction(1, writes=["a"]),
            make_transaction(2, reads=["a"], writes=["b"]),
            make_transaction(3, reads=["b"]),
        ]
        waves = PCCScheduler().schedule(txns).schedule.sequences()
        assert waves[1] < waves[2] < waves[3]

    def test_declares_lock_based_execution(self):
        assert PCCScheduler.execution == "declared"

    def test_timing_reported(self):
        result = PCCScheduler().schedule([make_transaction(1, writes=["x"])])
        assert "lock_scheduling" in result.phase_seconds()


class TestPCCPipeline:
    def test_pcc_state_matches_serial_execution(self):
        """Wave-based re-execution must equal fully serial execution."""
        from repro.node import FullNode, SerialExecutorCommitter
        from repro.dag import EpochCoordinator, Mempool, ParallelChains, PoWParams
        from repro.state import StateDB
        from repro.vm.contracts import default_registry
        from repro.workload import initial_state

        config = SmallBankConfig(account_count=100, skew=0.8, seed=33)
        pow_params = PoWParams(difficulty_bits=6)

        state = StateDB()
        state.seed(initial_state(config))
        node = FullNode(
            chains=ParallelChains(chain_count=2, pow_params=pow_params),
            state=state,
            scheduler=PCCScheduler(),
            registry=default_registry(),
        )
        chains = ParallelChains(chain_count=2, pow_params=pow_params)
        coordinator = EpochCoordinator(chains=chains, miners=["m"], block_size=40)
        pool = Mempool()
        workload = SmallBankWorkload(config)
        pool.submit_many(workload.generate(200))

        serial_state = StateDB()
        serial_state.seed(initial_state(config))
        serial = SerialExecutorCommitter(registry=default_registry())

        for _ in range(2):
            blocks = coordinator.mine_epoch(pool, state_root=node.state_root)
            epoch_txns = []
            seen = set()
            for block in blocks:
                for txn in block.transactions:
                    if txn.txid not in seen:
                        seen.add(txn.txid)
                        epoch_txns.append(txn)
            report = node.receive_epoch(blocks)
            # PCC's lock order is transaction-id order, so the reference
            # serial execution must use id order too (the Serial *scheme*
            # instead uses block order, which is a different valid order).
            serial_report = serial.run(
                sorted(epoch_txns, key=lambda t: t.txid), serial_state
            )
            assert report.state_root == serial_report.state_root
            assert report.aborted == 0

    def test_pcc_concurrency_beats_serial(self):
        workload = SmallBankWorkload(SmallBankConfig(account_count=5000, skew=0.2, seed=9))
        txns = flatten_blocks(workload.generate_blocks(2, 100))
        result = PCCScheduler().schedule(txns)
        assert result.schedule.mean_group_size > 2.0
