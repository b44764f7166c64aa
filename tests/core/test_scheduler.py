"""Unit tests for the Nezha scheduler facade."""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path

import pytest

import repro
import repro.core
from repro.analysis.certify import certify_epoch
from repro.core import NezhaConfig, NezhaScheduler
from repro.errors import SchedulingError
from repro.txn import make_transaction
from repro.workload import SmallBankConfig, SmallBankWorkload, flatten_blocks


class TestSchedulerBasics:
    def test_empty_batch(self):
        result = NezhaScheduler().schedule([])
        assert result.schedule.groups == ()
        assert result.schedule.aborted == ()

    def test_single_transaction(self):
        result = NezhaScheduler().schedule([make_transaction(1, writes=["x"])])
        assert result.schedule.committed == (1,)

    def test_non_conflicting_commit_concurrently(self):
        txns = [make_transaction(i, writes=[f"w{i}"]) for i in range(1, 6)]
        result = NezhaScheduler().schedule(txns)
        assert len(result.schedule.groups) == 1
        assert result.schedule.groups[0].txids == (1, 2, 3, 4, 5)

    def test_timings_populated(self, paper_transactions):
        result = NezhaScheduler().schedule(paper_transactions)
        timings = result.phase_seconds()
        assert set(timings) == {
            "graph_construction",
            "rank_division",
            "transaction_sorting",
            "validation",
        }
        assert all(v >= 0 for v in timings.values())
        assert sum(timings.values()) >= max(timings.values())

    def test_validation_disabled_skips_phase(self, paper_transactions):
        config = NezhaConfig(enable_validation=False)
        result = NezhaScheduler(config).schedule(paper_transactions)
        assert result.phase_seconds()["validation"] == 0.0

    def test_rank_order_exposed(self, paper_transactions):
        result = NezhaScheduler().schedule(paper_transactions)
        assert result.rank_order == ["A2", "A3", "A1", "A4"]

    def test_aborted_property_mirrors_schedule(self, paper_transactions):
        result = NezhaScheduler().schedule(paper_transactions)
        assert result.aborted == result.schedule.aborted


class TestConfig:
    def test_fields_are_the_four_anything_reads(self):
        """A fifth field is a second code path: justify it before adding."""
        assert {f.name for f in dataclasses.fields(NezhaConfig)} == {
            "enable_reorder",
            "enable_validation",
            "initial_seq",
            "rank_policy",
        }

    @pytest.mark.parametrize("initial_seq", [0, -1])
    def test_nonpositive_initial_seq_rejected(self, initial_seq):
        """0 is the sorter's "no reads" sentinel — it would mis-sort."""
        with pytest.raises(SchedulingError):
            NezhaConfig(initial_seq=initial_seq)


def names_in(path: Path) -> set[str]:
    """Every name a module defines, imports, uses or lists as a string
    constant (which covers ``__all__`` and lazy-export tables)."""
    named: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            named.add(node.name)
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                named.update((alias.name, alias.asname or alias.name))
        elif isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            named.add(node.value)
    return named


class TestReferenceIsNotADependency:
    """The string-keyed CC stages and the per-unit API live only in
    ``tests/reference.py``, the test oracle: no module under ``src/repro``
    defines, imports, exports or names them (cf. the certifier's
    independence test)."""

    REFERENCE_NAMES = {
        "build_acg",
        "divide_ranks",
        "rank_addresses",
        "sort_transactions",
        "validate_sort",
        "SortState",
        "Unit",
        "UnitKind",
    }
    #: Serializability checkers ``certify_epoch`` replaced: the product
    #: ships one, and its second opinion is ``tests/core/test_small_scope.py``.
    RETIRED_CHECKERS = {"check_invariants", "certify_schedule", "CertificationReport"}

    def test_epoch_path_never_names_a_reference_stage(self):
        files = sorted(Path(repro.__file__).parent.rglob("*.py"))
        assert len(files) > 100
        for path in files:
            used = names_in(path) & self.REFERENCE_NAMES
            assert not used, f"{path.name} uses {sorted(used)}"

    def test_certify_epoch_is_the_only_serializability_checker(self):
        root = Path(repro.__file__).parent
        assert not (root / "analysis" / "serializability.py").exists()
        files = sorted(root.rglob("*.py"))
        assert len(files) > 100
        for path in files:
            used = names_in(path) & self.RETIRED_CHECKERS
            assert not used, f"{path.name} names {sorted(used)}"

    def test_core_exports_match_the_dense_path(self):
        """One builder, ranker, sorter and validator: a second
        implementation of a CC step goes to ``tests/reference.py``."""
        assert set(repro.core.__all__) == {
            "ACG",
            "AddressRWList",
            "CommitGroup",
            "DenseACG",
            "DenseSortState",
            "INITIAL_SEQUENCE",
            "IncrementalACG",
            "InternedBatch",
            "NezhaConfig",
            "NezhaResult",
            "NezhaScheduler",
            "RankPolicy",
            "Schedule",
            "SchemeResult",
            "acg_to_dot",
            "build_dense_acg",
            "conflict_graph_to_dot",
            "dense_acg_equal",
            "dense_acg_from_transactions",
            "divide_ranks_dense",
            "intern_batch",
            "schedule_from_sequences",
            "schedule_to_dot",
            "serial_schedule",
            "sort_transactions_dense",
            "validate_sort_dense",
        }
        assert len(repro.core.__all__) == 26


#: Clock reads: ``time.<name>`` and ``from time import <name>``.
CLOCKS = {"perf_counter", "perf_counter_ns", "time", "time_ns", "monotonic", "monotonic_ns"}


def clock_reads(source: str) -> list[str]:
    """Every reference to a ``time`` clock function in ``source``."""
    found: list[str] = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "time"
            and node.attr in CLOCKS
        ):
            found.append(f"time.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "time":
            found.extend(f"time.{a.name}" for a in node.names if a.name in CLOCKS)
    return found


class TestOneClock:
    """Every interval ``src/repro`` reports is the ``duration`` of the
    span around it: ``obs/tracer.py`` is the only module that reads a
    clock, so nothing is timed twice (by a span and by a hand-paired
    ``perf_counter`` read beside it)."""

    def test_only_the_tracer_reads_a_clock(self):
        root = Path(repro.__file__).parent
        files = sorted(root.rglob("*.py"))
        assert len(files) > 100
        readers = {
            path.relative_to(root).as_posix(): reads
            for path in files
            if (reads := clock_reads(path.read_text()))
        }
        assert set(readers) == {"obs/tracer.py"}, readers

    @pytest.mark.parametrize(
        "source",
        [
            "import time\nstart = time.perf_counter()\n",
            "import time\nnow = time.time()\n",
            "from time import monotonic\n",
        ],
    )
    def test_scan_sees_a_clock_read(self, source):
        assert clock_reads(source)


class TestOneExecutionPlacement:
    """A batch executes as one loop on the calling thread: nothing under
    ``src/repro`` starts a process, serialises objects for one, or takes
    a worker count (EXPERIMENTS.md, "Negative results (ISSUE 20)")."""

    FORBIDDEN = (
        "multiprocessing",
        "pickle",
        "concurrent.futures.process",
        "ProcessPoolExecutor",
    )

    def test_no_process_machinery_and_no_workers_option(self):
        files = sorted(Path(repro.__file__).parent.rglob("*.py"))
        assert len(files) > 100
        for path in files:
            for node in ast.walk(ast.parse(path.read_text())):
                imported: list[str] = []
                declared: list[str] = []
                if isinstance(node, ast.Import):
                    imported = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    imported = [node.module or "", *(a.name for a in node.names)]
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    args = node.args
                    declared = [
                        a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
                    ]
                elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    declared = [node.target.id]  # dataclass fields
                for name in imported:
                    assert not name.startswith(self.FORBIDDEN), f"{path.name}: {name}"
                assert "workers" not in declared, f"{path.name} declares 'workers'"


class TestOneStatePath:
    """One state class, sealed once per epoch: storage sits below it and
    never reaches back up, and no option selects a second backend."""

    def test_storage_never_imports_state(self):
        files = sorted((Path(repro.__file__).parent / "storage").rglob("*.py"))
        assert len(files) > 3
        for path in files:
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""]
                else:
                    continue
                for module in modules:
                    assert not module.startswith("repro.state"), f"{path.name}: {module}"

    def test_cluster_config_and_state_constructor(self):
        import inspect

        import repro.net
        from repro.net import ClusterConfig, NodeSpec
        from repro.state import FlatStateDB, StateDB

        # What a node is lives once, in NodeSpec; the cluster config keeps
        # only the simulated deployment around it, one replica or many.
        def names(cls):
            return [f.name for f in dataclasses.fields(cls)]

        assert names(ClusterConfig) == [
            "replica_count",
            "miner_count",
            "block_size",
            "block_interval",
            "cost_model",
        ]
        gone = {"ReplicaNetwork", "ReplicaNetworkConfig", "EpochAgreement", "Simulator"}
        assert not gone & set(repro.net.__all__)
        assert names(NodeSpec) == ["scheme", "chain_count", "workload", "pipeline", "pow"]
        params = list(inspect.signature(StateDB.__init__).parameters)
        assert params == ["self", "store", "root", "tracer"]
        assert FlatStateDB is StateDB


class TestSchedulerSerializability:
    def test_smallbank_schedules_are_serializable(self):
        for skew in (0.0, 0.5, 0.9):
            workload = SmallBankWorkload(SmallBankConfig(skew=skew, seed=11))
            txns = flatten_blocks(workload.generate_blocks(4, 50))
            result = NezhaScheduler().schedule(txns)
            certificate = certify_epoch({t.txid: t.rwset for t in txns}, result.schedule)
            assert certificate.ok, f"skew={skew}: {certificate.summary()}"

    def test_equal_sequence_groups_are_conflict_free(self):
        workload = SmallBankWorkload(SmallBankConfig(skew=0.8, seed=3))
        txns = flatten_blocks(workload.generate_blocks(2, 100))
        by_id = {t.txid: t for t in txns}
        result = NezhaScheduler().schedule(txns)
        for group in result.schedule.groups:
            members = [by_id[t] for t in group.txids]
            for i, first in enumerate(members):
                for second in members[i + 1 :]:
                    shared_writes = first.write_set & second.write_set
                    assert not shared_writes
                    assert not (first.read_set & second.write_set)
                    assert not (second.read_set & first.write_set)

    def test_deterministic_across_runs(self):
        workload = SmallBankWorkload(SmallBankConfig(skew=0.7, seed=21))
        txns = flatten_blocks(workload.generate_blocks(3, 60))
        first = NezhaScheduler().schedule(txns)
        second = NezhaScheduler().schedule(txns)
        assert first.schedule == second.schedule
