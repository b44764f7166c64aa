"""Smoke tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main

# The paper's worked example (Table III -> Figures 4, 6 and 7), verbatim.
QUICKSTART_OUTPUT = """\
ACG unit lists (paper Figure 4):
  RW(A1: [T6^R | T1^W | ])
  RW(A2: [T1^R | T2^W, T3^W | ])
  RW(A3: [T2^R | T4^W, T6^W | ])
  RW(A4: [T3^R, T4^R, T5^R | T5^W | ])
address dependencies: [('A1', 'A2'), ('A2', 'A3'), ('A2', 'A4'), ('A3', 'A1'), ('A3', 'A4')]
sorting ranks (Figure 6): ['A2', 'A3', 'A1', 'A4']
commit schedule (Figure 7):
  seq 2: ['T2']
  seq 3: ['T3', 'T4']
  seq 4: ['T5', 'T6']
aborted: ['T1']
"""


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explode"])

    def test_defaults(self):
        args = build_parser().parse_args(["schedule"])
        assert args.scheme == "nezha"
        assert args.workload == "smallbank"
        assert args.omega == 4

    @pytest.mark.parametrize(
        "argv",
        [
            [command, flag]
            for command in ("simulate", "schedule", "compare", "conflicts")
            for flag in ("--omega", "--block-size", "--accounts")
        ]
        + [
            ["simulate", "--replicas"],
            ["simulate", "--epochs"],
            ["trace", "record", "--out", "t.json", "--omega"],
        ],
        ids=" ".join,
    )
    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_counts_must_be_positive(self, argv, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + [value])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert f"must be a positive integer, got {value}" in err
        assert "Traceback" not in err


class TestCommands:
    def run(self, argv, capsys):
        code = main(argv)
        out = capsys.readouterr().out
        return code, out

    def test_quickstart(self, capsys):
        code, out = self.run(["quickstart"], capsys)
        assert code == 0
        assert out == QUICKSTART_OUTPUT

    def test_schedule_smallbank(self, capsys):
        code, out = self.run(
            ["schedule", "--scheme", "nezha", "--omega", "2", "--block-size", "20",
             "--skew", "0.5", "--accounts", "200"],
            capsys,
        )
        assert code == 0
        assert "committed" in out
        assert "graph_construction" in out
        assert "isolated (skip CC)" in out

    def test_schedule_token_workload(self, capsys):
        code, out = self.run(
            ["schedule", "--workload", "token", "--omega", "2", "--block-size", "15",
             "--accounts", "100"],
            capsys,
        )
        assert code == 0
        assert "token" in out

    def test_schedule_synthetic_workload(self, capsys):
        code, out = self.run(
            ["schedule", "--workload", "synthetic", "--omega", "2",
             "--block-size", "15", "--accounts", "50"],
            capsys,
        )
        assert code == 0

    def test_compare(self, capsys):
        code, out = self.run(
            ["compare", "--omega", "2", "--block-size", "15", "--accounts", "200"],
            capsys,
        )
        assert code == 0
        for scheme in ("serial", "occ", "pcc", "cg", "nezha"):
            assert scheme in out

    def test_conflicts(self, capsys):
        code, out = self.run(
            ["conflicts", "--omega", "2", "--block-size", "20", "--skew", "1.0",
             "--accounts", "100"],
            capsys,
        )
        assert code == 0
        assert "conflict probability" in out

    def test_simulate(self, capsys):
        code, out = self.run(
            ["simulate", "--scheme", "nezha", "--epochs", "1", "--omega", "2",
             "--block-size", "10", "--accounts", "200"],
            capsys,
        )
        assert code == 0
        assert "effective throughput" in out

    def test_simulate_rejects_token_workload(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--workload", "token", "--epochs", "1", "--omega", "2"])
        assert exc.value.code == 2

    def test_multinode_command_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["multinode", "--replicas", "2"])
        assert exc.value.code == 2


class TestTraceCommands:
    def test_record_info_run(self, tmp_path, capsys):
        trace_file = str(tmp_path / "t.jsonl")
        assert main(
            ["trace", "record", "--out", trace_file, "--workload", "smallbank",
             "--omega", "2", "--block-size", "10", "--accounts", "100"]
        ) == 0
        capsys.readouterr()

        assert main(["trace", "info", trace_file]) == 0
        out = capsys.readouterr().out
        assert "transactions" in out
        assert "smallbank." in out

        assert main(["trace", "run", trace_file, "--scheme", "occ"]) == 0
        out = capsys.readouterr().out
        assert "committed" in out

    @pytest.mark.parametrize("command", ["info", "run"])
    def test_missing_trace_file_is_one_error_line(self, command, tmp_path, capsys):
        missing = str(tmp_path / "nonexist.json")
        assert main(["trace", command, missing]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"invalid trace {missing}: trace file {missing} does not exist\n"
        assert captured.out == ""

    def test_trace_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace"])


class TestAnalyze:
    def run(self, argv, capsys):
        code = main(argv)
        out = capsys.readouterr().out
        return code, out

    def test_analyze_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["analyze"])

    def test_bytecode_all_contracts(self, capsys):
        code, out = self.run(["analyze", "bytecode"], capsys)
        assert code == 0
        assert "smallbank" in out
        assert "token" in out
        assert "transferFrom" in out
        assert "gas" in out

    def test_bytecode_single_contract_json(self, capsys):
        import json

        code, out = self.run(
            ["analyze", "bytecode", "--contract", "smallbank", "--json"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        (contract,) = payload["contracts"]
        assert contract["contract"] == "smallbank"
        assert all(m["ok"] for m in contract["methods"])

    def test_bytecode_containment_sweep(self, capsys):
        code, out = self.run(
            ["analyze", "bytecode", "--check-containment", "--sweeps", "5"], capsys
        )
        assert code == 0
        assert "containment" in out

    def test_lint_default_paths_clean(self, capsys):
        code, out = self.run(["analyze", "lint"], capsys)
        assert code == 0
        assert "lint clean" in out

    def test_lint_flags_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nstamp = time.time()\n")
        code, out = self.run(["analyze", "lint", str(bad)], capsys)
        assert code == 1
        assert "ND102" in out

    def test_lint_json_output(self, tmp_path, capsys):
        import json

        bad = tmp_path / "bad.py"
        bad.write_text("import random\nx = random.random()\n")
        code, out = self.run(["analyze", "lint", str(bad), "--json"], capsys)
        assert code == 1
        payload = json.loads(out)
        assert payload["findings"][0]["rule"] == "ND103"

    def test_lint_select(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nstamp = time.time()\n")
        code, _out = self.run(
            ["analyze", "lint", str(bad), "--select", "ND101"], capsys
        )
        assert code == 0

    def test_lint_warning_severity_does_not_gate_exit(self, tmp_path, capsys):
        # ND203 (shared container mutation) is warning-severity: it
        # prints but leaves the exit code at 0.
        warn = tmp_path / "warn.py"
        warn.write_text(
            "from concurrent.futures import ThreadPoolExecutor\n"
            "class W:\n"
            "    def __init__(self):\n"
            "        self.items = []\n"
            "    def run(self):\n"
            "        with ThreadPoolExecutor() as pool:\n"
            "            pool.submit(self._work)\n"
            "    def read(self):\n"
            "        return self.items\n"
            "    def _work(self):\n"
            "        self.items.append(1)\n"
        )
        code, out = self.run(["analyze", "lint", str(warn)], capsys)
        assert code == 0
        assert "ND203" in out

    def test_lint_nd201_error_gates_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "from concurrent.futures import ThreadPoolExecutor\n"
            "class W:\n"
            "    def __init__(self):\n"
            "        self.count = 0\n"
            "    def run(self):\n"
            "        with ThreadPoolExecutor() as pool:\n"
            "            pool.submit(self._work)\n"
            "    def read(self):\n"
            "        return self.count\n"
            "    def _work(self):\n"
            "        self.count += 1\n"
        )
        code, out = self.run(["analyze", "lint", str(bad)], capsys)
        assert code == 1
        assert "ND201" in out


class TestCertifyCLI:
    """The certifier surface: simulate --certify/--sanitize, analyze certify."""

    def run(self, argv, capsys):
        code = main(argv)
        return code, capsys.readouterr().out

    def simulate_certified(self, tmp_path, capsys, *extra):
        code, out = self.run(
            [
                "simulate", "--scheme", "nezha", "--epochs", "2", "--omega", "2",
                "--block-size", "15", "--accounts", "120", "--skew", "0.8",
                "--certify", "--certify-out", str(tmp_path / "certs"), *extra,
            ],
            capsys,
        )
        return code, out

    def test_simulate_certify_writes_artifacts(self, tmp_path, capsys):
        code, out = self.simulate_certified(tmp_path, capsys)
        assert code == 0
        assert "certified epochs" in out
        certs = tmp_path / "certs"
        assert len(list(certs.glob("*.artifact.json"))) == 2
        assert len(list(certs.glob("*.certificate.json"))) == 2

    def test_simulate_sanitize_reports_clean(self, tmp_path, capsys):
        code, out = self.simulate_certified(tmp_path, capsys, "--sanitize")
        assert code == 0
        assert "0 races" in out

    def test_analyze_certify_accepts_written_artifacts(self, tmp_path, capsys):
        self.simulate_certified(tmp_path, capsys)
        code, out = self.run(["analyze", "certify", str(tmp_path / "certs")], capsys)
        assert code == 0
        assert "CERTIFIED" in out

    def test_analyze_certify_json_and_out(self, tmp_path, capsys):
        import json

        self.simulate_certified(tmp_path, capsys)
        out_dir = tmp_path / "rechecked"
        code, out = self.run(
            [
                "analyze", "certify", str(tmp_path / "certs"),
                "--json", "--out", str(out_dir),
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert len(payload["certificates"]) == 2
        assert len(list(out_dir.glob("*.certificate.json"))) == 2

    def test_analyze_certify_rejects_corrupted_artifact(self, tmp_path, capsys):
        import json

        self.simulate_certified(tmp_path, capsys)
        path = sorted((tmp_path / "certs").glob("*.artifact.json"))[0]
        payload = json.loads(path.read_text())
        payload["reason_counts"] = {"scheme_conflict": 10_000}
        path.write_text(json.dumps(payload))
        code, out = self.run(["analyze", "certify", str(path)], capsys)
        assert code == 1
        assert "REJECTED" in out

    def test_analyze_certify_invalid_file(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text("{}")
        code, _out = self.run(["analyze", "certify", str(bogus)], capsys)
        assert code == 2


class TestFlightRecorder:
    """The observability CLI surface: --trace-out/--metrics-out, replicas, top."""

    def run(self, argv, capsys):
        code = main(argv)
        out = capsys.readouterr().out
        return code, out

    def test_simulate_writes_trace_and_metrics(self, tmp_path, capsys):
        import json

        from repro.obs import validate_chrome_trace

        trace_file = tmp_path / "trace.json"
        metrics_file = tmp_path / "metrics.prom"
        code, out = self.run(
            ["simulate", "--scheme", "nezha", "--epochs", "2", "--omega", "2",
             "--block-size", "10", "--accounts", "200",
             "--trace-out", str(trace_file), "--metrics-out", str(metrics_file)],
            capsys,
        )
        assert code == 0
        assert "trace:" in out and "metrics:" in out
        events = validate_chrome_trace(json.loads(trace_file.read_text()))
        names = {event["name"] for event in events}
        # Nested sub-phase spans: pipeline phases AND CC sub-phases.
        assert "pipeline.epoch" in names
        assert "cc.sorting" in names
        prom = metrics_file.read_text()
        assert "# TYPE epochs_total counter" in prom
        assert "# TYPE gc_collections_total counter" in prom
        assert "txns_abort_reason_total" in prom or "txns_aborted_total 0" in prom

    def test_top_summarises_trace(self, tmp_path, capsys):
        trace_file = tmp_path / "trace.json"
        assert main(
            ["simulate", "--epochs", "1", "--omega", "2", "--block-size", "10",
             "--accounts", "200", "--trace-out", str(trace_file)]
        ) == 0
        capsys.readouterr()
        code, out = self.run(["top", str(trace_file), "--limit", "5"], capsys)
        assert code == 0
        assert "pipeline.epoch" in out
        assert len(out.strip().splitlines()) <= 7  # header + rule + 5 rows

    def test_top_rejects_invalid_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"traceEvents\": []}")
        assert main(["top", str(bad)]) == 2
        assert "invalid trace" in capsys.readouterr().err

    def test_multinode_agreement_and_outputs(self, tmp_path, capsys):
        import json

        trace_file = tmp_path / "mn.json"
        metrics_file = tmp_path / "mn.prom"
        code, out = self.run(
            ["simulate", "--replicas", "2", "--epochs", "2", "--omega", "2",
             "--block-size", "10", "--accounts", "200", "--skew", "0.5",
             "--trace-out", str(trace_file), "--metrics-out", str(metrics_file)],
            capsys,
        )
        assert code == 0
        assert "yes" in out
        # The delivery to the unmeasured replica is traced too.
        deliveries = [
            event["args"]["replica"]
            for event in json.loads(trace_file.read_text())["traceEvents"]
            if event["name"] == "net.receive_epoch"
        ]
        assert deliveries == [0, 1, 0, 1]
        assert "epochs_total 2" in metrics_file.read_text()

    def test_trace_run_writes_obs_outputs(self, tmp_path, capsys):
        workload_trace = str(tmp_path / "wl.jsonl")
        assert main(
            ["trace", "record", "--out", workload_trace, "--omega", "2",
             "--block-size", "10", "--accounts", "100"]
        ) == 0
        capsys.readouterr()
        trace_file = tmp_path / "run.json"
        metrics_file = tmp_path / "run.prom"
        code, out = self.run(
            ["trace", "run", workload_trace, "--scheme", "nezha",
             "--trace-out", str(trace_file), "--metrics-out", str(metrics_file)],
            capsys,
        )
        assert code == 0
        assert "cc.sorting" in trace_file.read_text()
        prom = metrics_file.read_text()
        assert "txns_committed_total" in prom
        assert 'gc_collections_total{generation="0"}' in prom


class TestFlightLedgerCLI:
    """The flight-ledger surface: --ledger-out, --metrics-port, analyze."""

    def run(self, argv, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.fixture()
    def ledger_file(self, tmp_path, capsys):
        """A recorded ledger from a hot simulate run (aborts guaranteed)."""
        path = tmp_path / "flight.jsonl"
        code, out, _err = self.run(
            ["simulate", "--scheme", "nezha", "--epochs", "2", "--omega", "2",
             "--block-size", "25", "--accounts", "60", "--skew", "0.95",
             "--ledger-out", str(path)],
            capsys,
        )
        assert code == 0
        assert "ledger:" in out
        return path

    def test_analyze_ledger_validates_recorded_file(self, ledger_file, capsys):
        code, out, _err = self.run(["analyze", "ledger", str(ledger_file)], capsys)
        assert code == 0
        assert "ok" in out

    def test_analyze_ledger_rejects_foreign_file(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.jsonl"
        bogus.write_text('{"schema": "nope"}\n')
        code, _out, err = self.run(["analyze", "ledger", str(bogus)], capsys)
        assert code == 1
        assert "unreadable ledger" in err

    def test_analyze_txn_replays_abort_timeline(self, ledger_file, capsys):
        import json

        from repro.obs import read_jsonl

        _meta, events = read_jsonl(ledger_file)
        victim = next(e["txid"] for e in events if e["kind"] == "abort")
        code, out, _err = self.run(
            ["analyze", "txn", str(victim), "--ledger", str(ledger_file)],
            capsys,
        )
        assert code == 0
        assert f"T{victim} timeline" in out
        assert "abort chain:" in out
        code, out, _err = self.run(
            ["analyze", "txn", str(victim), "--ledger", str(ledger_file),
             "--json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["report"] == "txn-timeline"
        assert payload["abort_chain"]
        stages = [e["kind"] for e in payload["timeline"]]
        assert stages[0] == "ingest"
        assert "abort" in stages

    def test_analyze_txn_unknown_txid(self, ledger_file, capsys):
        code, _out, err = self.run(
            ["analyze", "txn", "999999999", "--ledger", str(ledger_file)],
            capsys,
        )
        assert code == 1
        assert "no events" in err

    def test_analyze_contention_reports_hot_addresses(self, ledger_file, capsys):
        import json

        code, out, _err = self.run(
            ["analyze", "contention", "--ledger", str(ledger_file), "--json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["report"] == "contention"
        assert payload["addresses"]
        hottest = max(
            payload["addresses"], key=lambda a: payload["addresses"][a]["aborts"]
        )
        assert payload["addresses"][hottest]["aborts"] >= 1
        code, out, _err = self.run(
            ["analyze", "contention", "--ledger", str(ledger_file)], capsys
        )
        assert code == 0
        assert hottest in out

    def test_simulate_serves_metrics_endpoint(self, capsys):
        code, out, _err = self.run(
            ["simulate", "--epochs", "1", "--omega", "2", "--block-size", "10",
             "--accounts", "100", "--metrics-port", "0"],
            capsys,
        )
        assert code == 0
        assert "metrics endpoint:" in out
        assert "/metrics (and /healthz)" in out

    def test_multinode_ledger_out(self, tmp_path, capsys):
        path = tmp_path / "replica0.jsonl"
        code, out, _err = self.run(
            ["simulate", "--replicas", "2", "--epochs", "1", "--omega", "2",
             "--block-size", "10", "--accounts", "200", "--skew", "0.5",
             "--ledger-out", str(path)],
            capsys,
        )
        assert code == 0
        assert "ledger:" in out
        assert path.exists()
