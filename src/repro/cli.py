"""Command-line interface.

Four subcommands cover the everyday uses of the library::

    repro-nezha quickstart                        # paper's worked example
    repro-nezha schedule --scheme nezha --skew .8 # one batch, one scheme
    repro-nezha compare --skew .6                 # all schemes side by side
    repro-nezha simulate --scheme nezha --epochs 5  # cluster throughput

Also runnable as ``python -m repro``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.analysis import measure_conflicts, pairwise_conflict_count
from repro.bench import SCHEMES, make_scheme, run_scheme
from repro.bench.tables import render_table
from repro.workload import (
    SmallBankConfig,
    SmallBankWorkload,
    SyntheticConfig,
    SyntheticWorkload,
    TokenConfig,
    TokenWorkload,
    flatten_blocks,
)

WORKLOADS = ("smallbank", "token", "synthetic")


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument schema."""
    parser = argparse.ArgumentParser(
        prog="repro-nezha",
        description="Nezha (ICDCS 2022) reproduction: concurrency control "
        "for DAG-based blockchains",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("quickstart", help="walk through the paper's worked example")

    schedule = sub.add_parser("schedule", help="schedule one epoch's batch")
    _add_workload_args(schedule)
    schedule.add_argument(
        "--scheme", choices=sorted(SCHEMES), default="nezha", help="scheme to run"
    )

    compare = sub.add_parser("compare", help="run every scheme on one batch")
    _add_workload_args(compare)

    simulate = sub.add_parser("simulate", help="simulated cluster throughput")
    _add_shape_args(simulate)
    simulate.add_argument("--scheme", choices=sorted(SCHEMES), default="nezha")
    simulate.add_argument("--epochs", type=positive_int, default=3, help="epochs to run")
    simulate.add_argument(
        "--replicas",
        type=positive_int,
        default=1,
        help="full nodes fed the same blocks; with more than one, print "
        "per-epoch agreement (nonzero exit on disagreement)",
    )
    simulate.add_argument(
        "--paper-costs",
        action="store_true",
        help="charge execution at the paper-calibrated EVM rate",
    )
    simulate.add_argument(
        "--delta-cc",
        action="store_true",
        help="operation-level CC: promote provably commutative writes to "
        "delta units that share sequence numbers instead of conflicting "
        "(Nezha scheduler only; baselines ignore the flag)",
    )
    simulate.add_argument(
        "--streaming",
        action="store_true",
        help="streaming epoch engine: overlap the next epoch's speculative "
        "execution with the current epoch's concurrency control and commit "
        "(Nezha scheduler only; results stay bit-identical to the barrier "
        "pipeline)",
    )
    simulate.add_argument(
        "--certify",
        action="store_true",
        help="run the independent proof-carrying schedule certifier over "
        "every committed epoch (the run fails on the first rejected "
        "certificate)",
    )
    simulate.add_argument(
        "--certify-out",
        default=None,
        metavar="DIR",
        help="with --certify: write per-epoch artifact and certificate "
        "JSON files into DIR (re-checkable via 'analyze certify')",
    )
    simulate.add_argument(
        "--sanitize",
        action="store_true",
        help="enable the vector-clock concurrency sanitizer for the run "
        "and report data races (nonzero exit when any are found)",
    )
    _add_obs_args(simulate)
    _add_ledger_args(simulate)

    conflicts = sub.add_parser("conflicts", help="conflict analysis (Table I)")
    _add_workload_args(conflicts)

    analyze = sub.add_parser(
        "analyze",
        help="static analysis: bytecode verifier, determinism/concurrency "
        "lint, and the offline schedule certifier",
    )
    analyze_sub = analyze.add_subparsers(dest="analyze_command", required=True)
    bytecode = analyze_sub.add_parser(
        "bytecode", help="verify shipped contract bytecode (stack/jump/gas/RW-sets)"
    )
    bytecode.add_argument(
        "--contract",
        choices=("all", "smallbank", "token"),
        default="all",
        help="contract to verify",
    )
    bytecode.add_argument(
        "--check-containment",
        action="store_true",
        help="also execute a seeded argument sweep and assert the static "
        "RW key sets contain every observed LoggedStorage RW-set",
    )
    bytecode.add_argument(
        "--sweeps", type=int, default=40, help="executions per method in the sweep"
    )
    bytecode.add_argument("--seed", type=int, default=0, help="sweep PRNG seed")
    bytecode.add_argument(
        "--json", action="store_true", help="emit the machine-readable report"
    )
    lint = analyze_sub.add_parser(
        "lint", help="determinism/concurrency lint over consensus-critical Python"
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help="files or directories (default: the consensus-critical "
        "repro packages: core, dag, state, node)",
    )
    lint.add_argument(
        "--select", default=None, help="comma-separated rule codes (default: all)"
    )
    lint.add_argument(
        "--json", action="store_true", help="emit the machine-readable report"
    )
    certify = analyze_sub.add_parser(
        "certify",
        help="re-check exported epoch schedule artifacts with the "
        "independent proof-carrying certifier",
    )
    certify.add_argument(
        "paths",
        nargs="+",
        help="epoch artifact JSON files, or directories containing them "
        "(as written by 'simulate --certify --certify-out DIR')",
    )
    certify.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="also write one certificate JSON per artifact into DIR",
    )
    certify.add_argument(
        "--json", action="store_true", help="emit the machine-readable report"
    )
    txn = analyze_sub.add_parser(
        "txn",
        help="replay one transaction's causal timeline from a recorded "
        "flight ledger (ingest -> execute -> schedule -> commit/abort, "
        "with the abort's attributed conflict chain)",
    )
    txn.add_argument("txid", type=int, help="transaction id to replay")
    txn.add_argument(
        "--ledger", required=True, metavar="FILE",
        help="flight-ledger JSONL written via --ledger-out",
    )
    txn.add_argument(
        "--json", action="store_true", help="emit the machine-readable report"
    )
    contention = analyze_sub.add_parser(
        "contention",
        help="per-address hot-key report from a recorded flight ledger: "
        "abort mass, edge-kind breakdown, delta-promotion candidates, "
        "and a Zipf skew estimate",
    )
    contention.add_argument(
        "--ledger", required=True, metavar="FILE",
        help="flight-ledger JSONL written via --ledger-out",
    )
    contention.add_argument(
        "--top", type=int, default=10, help="contended addresses to list"
    )
    contention.add_argument(
        "--json", action="store_true", help="emit the machine-readable report"
    )
    ledger_check = analyze_sub.add_parser(
        "ledger", help="schema-check an exported flight-ledger JSONL file"
    )
    ledger_check.add_argument("file", help="flight-ledger JSONL to validate")

    trace = sub.add_parser("trace", help="record, inspect, and replay workload traces")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    record = trace_sub.add_parser("record", help="generate and save a trace")
    _add_workload_args(record)
    record.add_argument("--out", required=True, help="trace file to write")
    info = trace_sub.add_parser("info", help="show a trace's shape")
    info.add_argument("file", help="trace file to inspect")
    replay = trace_sub.add_parser("run", help="schedule a recorded trace")
    replay.add_argument("file", help="trace file to replay")
    replay.add_argument("--scheme", choices=sorted(SCHEMES), default="nezha")
    _add_obs_args(replay)

    top = sub.add_parser(
        "top", help="slowest spans of a recorded flight-recorder trace"
    )
    top.add_argument("file", help="Chrome trace JSON written via --trace-out")
    top.add_argument("--limit", type=int, default=15, help="rows to show")
    return parser


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workload", choices=WORKLOADS, default="smallbank")
    _add_shape_args(parser)


def positive_int(text: str) -> int:
    """argparse type: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _add_shape_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--omega", type=positive_int, default=4, help="block concurrency")
    parser.add_argument(
        "--block-size", type=positive_int, default=100, help="txns per block"
    )
    parser.add_argument("--skew", type=float, default=0.0, help="Zipfian exponent")
    parser.add_argument("--accounts", type=positive_int, default=10_000, help="population")
    parser.add_argument("--seed", type=int, default=0, help="PRNG seed")


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="write a Chrome/Perfetto trace_event JSON of the run",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="write a Prometheus text-exposition metrics snapshot",
    )


def _add_ledger_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--ledger-out",
        default=None,
        metavar="FILE",
        help="record the transaction flight ledger and write it as JSONL "
        "(replayable via 'analyze txn' / 'analyze contention')",
    )
    parser.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve /metrics (Prometheus) and /healthz live on "
        "127.0.0.1:PORT for the duration of the run (0 = ephemeral port)",
    )


def make_workload(args: argparse.Namespace):
    """Instantiate the selected workload generator."""
    if args.workload == "smallbank":
        return SmallBankWorkload(
            SmallBankConfig(account_count=args.accounts, skew=args.skew, seed=args.seed)
        )
    if args.workload == "token":
        return TokenWorkload(
            TokenConfig(holder_count=args.accounts, skew=args.skew, seed=args.seed)
        )
    return SyntheticWorkload(
        SyntheticConfig(address_count=args.accounts, skew=args.skew, seed=args.seed)
    )


def generate_batch(args: argparse.Namespace):
    """One epoch's deduplicated transactions for the CLI parameters."""
    workload = make_workload(args)
    return flatten_blocks(workload.generate_blocks(args.omega, args.block_size))


def cmd_quickstart(_args: argparse.Namespace) -> int:
    from repro.core import NezhaScheduler
    from repro.txn import make_transaction

    transactions = [
        make_transaction(1, reads=["A2"], writes=["A1"]),
        make_transaction(2, reads=["A3"], writes=["A2"]),
        make_transaction(3, reads=["A4"], writes=["A2"]),
        make_transaction(4, reads=["A4"], writes=["A3"]),
        make_transaction(5, reads=["A4"], writes=["A4"]),
        make_transaction(6, reads=["A1"], writes=["A3"]),
    ]
    result = NezhaScheduler().schedule(transactions)
    acg = result.acg
    print("ACG unit lists (paper Figure 4):")
    for address in acg.addresses:
        print(f"  {acg.rw_lists[address]!r}")
    print(f"address dependencies: {sorted(acg.iter_edges())}")
    print(f"sorting ranks (Figure 6): {result.rank_order}")
    print("commit schedule (Figure 7):")
    for group in result.schedule.groups:
        print(f"  seq {group.sequence}: {[f'T{t}' for t in group.txids]}")
    print(f"aborted: {[f'T{t}' for t in result.schedule.aborted]}")
    return 0


def cmd_schedule(args: argparse.Namespace) -> int:
    transactions = generate_batch(args)
    run = run_scheme(make_scheme(args.scheme), transactions)
    rows = [
        ["transactions", len(transactions)],
        ["committed", run.schedule.committed_count],
        ["aborted", run.schedule.aborted_count],
        ["abort rate", f"{100 * run.schedule.abort_rate:.2f}%"],
        ["commit groups", len(run.schedule.groups)],
        ["mean group size", f"{run.schedule.mean_group_size:.2f}"],
        ["latency", f"{run.total_seconds * 1000:.2f} ms"],
    ]
    if args.scheme == "nezha":
        from repro.core import intern_batch

        # Transactions sharing no address commit at the first sequence
        # number without entering the ACG.
        isolated = len(intern_batch(transactions).isolated)
        rows.insert(1, ["isolated (skip CC)", isolated])
    for phase, seconds in run.phase_seconds.items():
        rows.append([f"  {phase}", f"{seconds * 1000:.2f} ms"])
    if run.failed:
        rows.append(["FAILED", "cycle budget exhausted (paper: OOM)"])
    print(render_table(f"{args.scheme} on {args.workload}", ["metric", "value"], rows))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    transactions = generate_batch(args)
    rows = []
    for scheme_name in sorted(SCHEMES):
        run = run_scheme(make_scheme(scheme_name), transactions)
        if run.failed:
            rows.append([scheme_name, "-", "-", "-", "FAILED"])
            continue
        rows.append(
            [
                scheme_name,
                run.schedule.committed_count,
                f"{100 * run.schedule.abort_rate:.1f}%",
                len(run.schedule.groups),
                f"{run.total_seconds * 1000:.2f} ms",
            ]
        )
    print(
        render_table(
            f"all schemes, {args.workload}, omega={args.omega}, skew={args.skew}",
            ["scheme", "committed", "aborts", "groups", "latency"],
            rows,
        )
    )
    return 0


def _make_obs(args: argparse.Namespace):
    """(tracer, ledger) per the observability flags.

    The flight ledger exists when anything will read it: its export, or
    the live endpoint's volume counters.
    """
    from repro.obs import FlightLedger, Tracer

    tracer = Tracer() if args.trace_out else None
    ledger = (
        FlightLedger()
        if getattr(args, "ledger_out", None)
        or getattr(args, "metrics_port", None) is not None
        else None
    )
    return tracer, ledger


def _start_endpoint(args: argparse.Namespace, render, health):
    """Bind the live /metrics endpoint when ``--metrics-port`` is given."""
    if getattr(args, "metrics_port", None) is None:
        return None
    from repro.obs import MetricsEndpoint

    endpoint = MetricsEndpoint(render, health=health, port=args.metrics_port).start()
    print(f"metrics endpoint: {endpoint.url}/metrics (and /healthz)")
    return endpoint


def _write_obs_outputs(args: argparse.Namespace, tracer, families, ledger=None) -> None:
    """Flush the flight recorder to the requested artifact files;
    ``families`` is called for the metric families only when written."""
    from repro.obs import write_chrome_trace, write_prometheus

    if tracer is not None and args.trace_out:
        count = write_chrome_trace(args.trace_out, tracer.spans())
        print(f"trace: {count} spans -> {args.trace_out}")
    if args.metrics_out:
        lines = write_prometheus(args.metrics_out, families(), tracer, ledger)
        print(f"metrics: {lines} lines -> {args.metrics_out}")
    if ledger is not None and getattr(args, "ledger_out", None):
        lines = ledger.write_jsonl(args.ledger_out)
        print(f"ledger: {lines} lines -> {args.ledger_out}")


def _node_spec(args: argparse.Namespace, **pipeline: bool):
    """The node `simulate` brings up on every replica, from its flags."""
    from repro.net import NodeSpec
    from repro.node import PipelineConfig

    return NodeSpec(
        scheme=args.scheme,
        chain_count=args.omega,
        workload=SmallBankConfig(
            account_count=args.accounts, skew=args.skew, seed=args.seed
        ),
        pipeline=PipelineConfig(**pipeline),
    )


def cmd_simulate(args: argparse.Namespace) -> int:
    from repro.analysis import race
    from repro.net import Cluster, ClusterConfig
    from repro.obs import collector_family, node_families, render_prometheus
    from repro.vm.costmodel import ExecutionCostModel, ZERO_COST

    tracer, ledger = _make_obs(args)
    detector = race.enable() if args.sanitize else None
    cluster = Cluster(
        _node_spec(
            args,
            delta_cc=args.delta_cc,
            streaming=args.streaming,
            certify=args.certify,
        ),
        ClusterConfig(
            replica_count=args.replicas,
            block_size=args.block_size,
            cost_model=ExecutionCostModel() if args.paper_costs else ZERO_COST,
        ),
        tracer=tracer,
        ledger=ledger,
    )

    def families():
        node = cluster.node
        stats = node.engine and node.engine.stats
        return [*node_families(list(node.reports), stats), collector_family()]

    endpoint = _start_endpoint(
        args,
        lambda: render_prometheus(families(), tracer, ledger),
        health=lambda: {
            "scheme": args.scheme,
            "replicas": args.replicas,
            "epochs_processed": len(cluster.node.reports),
            "epochs_target": args.epochs,
        },
    )
    try:
        with cluster:
            run = cluster.run_epochs(args.epochs)
    finally:
        if endpoint is not None:
            endpoint.stop()
        if detector is not None:
            race.disable()
    rows = [
        ["epochs", len(run.outcomes)],
        ["committed", run.committed],
        ["simulated duration", f"{run.duration:.2f} s"],
        ["effective throughput", f"{run.effective_throughput:.1f} tps"],
        ["mean abort rate", f"{100 * run.mean_abort_rate:.2f}%"],
    ]
    if args.certify:
        certificates = [
            outcome.report.certificate
            for outcome in run.outcomes
            if outcome.report.certificate is not None
        ]
        rows.append(["certified epochs", f"{len(certificates)}/{len(run.outcomes)}"])
        rows.append(
            [
                "conflict edges checked",
                sum(cert.conflict_edges for cert in certificates),
            ]
        )
        if args.certify_out:
            written = _write_certificates(
                args.certify_out, certificates, cluster.node.pipeline.artifacts
            )
            rows.append(["certificate files", f"{written} -> {args.certify_out}"])
    print(
        render_table(
            f"cluster: {args.scheme}, omega={args.omega}, skew={args.skew}",
            ["metric", "value"],
            rows,
        )
    )
    if args.replicas > 1:
        print(
            render_table(
                f"replica agreement: {args.replicas} replicas",
                ["epoch", "agreed", "committed", "slowest delivery"],
                [
                    [
                        outcome.report.epoch_index,
                        "yes" if outcome.agreed else "NO",
                        outcome.report.committed,
                        f"{max(outcome.delivery_times):.3f} s",
                    ]
                    for outcome in run.outcomes
                ],
            )
        )
    _write_obs_outputs(args, tracer, families, ledger)
    races = []
    if detector is not None:
        summary = detector.summary()
        races = summary["races"]
        print(
            f"sanitizer: {summary['accesses']} accesses across "
            f"{summary['locations']} locations, {len(races)} races"
        )
        for finding in detector.report():
            print(f"  {finding.render()}", file=sys.stderr)
    return 0 if run.all_agreed and not races else 1


def _write_certificates(out_dir: str, certificates, artifacts=()) -> int:
    """Write ``epoch-NNNN.certificate.json`` per certificate, and
    ``epoch-NNNN.artifact.json`` per artifact payload, into ``out_dir``
    (created if missing); return the count."""
    import json
    from pathlib import Path

    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    files = [(f"epoch-{p['epoch']:04d}.artifact.json", p) for p in artifacts]
    files += [
        (f"epoch-{cert.epoch_index:04d}.certificate.json", cert.to_json())
        for cert in certificates
    ]
    for name, payload in files:
        (directory / name).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
    return len(files)


def cmd_top(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.obs import render_top, validate_chrome_trace

    try:
        payload = json.loads(Path(args.file).read_text())
        events = validate_chrome_trace(payload)
    except (OSError, ValueError) as exc:
        print(f"invalid trace {args.file}: {exc}", file=sys.stderr)
        return 2
    print(render_top(events, limit=args.limit))
    return 0


def cmd_conflicts(args: argparse.Namespace) -> int:
    transactions = generate_batch(args)
    measured = measure_conflicts(transactions)
    theoretical = pairwise_conflict_count(len(transactions))
    rows = [
        ["transactions", measured.transaction_count],
        ["possible pairs (C coefficient)", f"{theoretical:,.0f}"],
        ["conflicting pairs (measured)", measured.conflicting_pairs],
        ["conflict probability p", f"{measured.conflict_probability:.4f}"],
        ["distinct addresses", measured.distinct_addresses],
        ["mean conflicts per address", f"{measured.mean_conflicts_per_address:.2f}"],
        ["max conflicts on one address", measured.max_conflicts_on_address],
    ]
    print(
        render_table(
            f"conflicts: {args.workload}, omega={args.omega}, skew={args.skew}",
            ["metric", "value"],
            rows,
        )
    )
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    if args.analyze_command == "bytecode":
        return _analyze_bytecode(args)
    if args.analyze_command == "certify":
        return _analyze_certify(args)
    if args.analyze_command == "txn":
        return _analyze_txn(args)
    if args.analyze_command == "contention":
        return _analyze_contention(args)
    if args.analyze_command == "ledger":
        return _analyze_ledger(args)
    return _analyze_lint(args)


def _load_ledger_events(path: str):
    """Read a ledger export for analysis; exits with code 2 on bad files."""
    from repro.obs import read_jsonl

    try:
        return read_jsonl(path)
    except (OSError, ValueError) as exc:
        print(f"invalid ledger {path}: {exc}", file=sys.stderr)
        return None


def _analyze_txn(args: argparse.Namespace) -> int:
    import json

    from repro.obs import iter_timeline, timeline_digest

    loaded = _load_ledger_events(args.ledger)
    if loaded is None:
        return 2
    meta, events = loaded
    timeline = list(iter_timeline(events, args.txid))
    if not timeline:
        print(f"T{args.txid}: no events in {args.ledger}", file=sys.stderr)
        return 1
    digest = timeline_digest(events, txid=args.txid)
    # Follow the attributed edges outward: who killed this transaction,
    # and (when the killer also died) who killed the killer.
    chain: list[dict] = []
    seen = {args.txid}
    frontier = [args.txid]
    by_txid: dict[int, list[dict]] = {}
    for event in events:
        if event["kind"] == "abort":
            by_txid.setdefault(event["txid"], []).append(event)
    while frontier:
        txid = frontier.pop(0)
        for event in by_txid.get(txid, ()):
            for peer, address, kind in event.get("edges", ()):
                chain.append(
                    {
                        "victim": txid,
                        "peer": peer,
                        "address": address,
                        "edge": kind,
                        "reason": event.get("reason"),
                    }
                )
                if peer >= 0 and peer not in seen:
                    seen.add(peer)
                    frontier.append(peer)
    if args.json:
        print(
            json.dumps(
                {
                    "report": "txn-timeline",
                    "txid": args.txid,
                    "meta": meta,
                    "digest": digest,
                    "timeline": timeline,
                    "abort_chain": chain,
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    rows = []
    for event in timeline:
        extra = {
            key: value
            for key, value in event.items()
            if key not in ("epoch", "txid", "kind")
        }
        detail = ", ".join(f"{key}={value}" for key, value in sorted(extra.items()))
        rows.append([event["epoch"], event["kind"], detail])
    print(
        render_table(
            f"T{args.txid} timeline (digest {digest[:12]})",
            ["epoch", "stage", "detail"],
            rows,
        )
    )
    if chain:
        print("abort chain:")
        for link in chain:
            peer = f"T{link['peer']}" if link["peer"] >= 0 else "(unknown)"
            print(
                f"  T{link['victim']} <-[{link['edge']} @ {link['address']}]- "
                f"{peer} ({link['reason']})"
            )
    return 0


def _analyze_contention(args: argparse.Namespace) -> int:
    import json

    from repro.obs import (
        aggregate_contention,
        delta_promotion_candidates,
        estimate_skew,
    )

    loaded = _load_ledger_events(args.ledger)
    if loaded is None:
        return 2
    _meta, events = loaded
    table = aggregate_contention(events)
    if not table:
        print("no attributed aborts in the ledger")
        return 0
    ranked = sorted(table.items(), key=lambda item: (-item[1]["aborts"], item[0]))
    candidates = delta_promotion_candidates(table)
    skew = estimate_skew(entry["aborts"] for entry in table.values())
    if args.json:
        print(
            json.dumps(
                {
                    "report": "contention",
                    "addresses": {
                        address: {
                            "aborts": entry["aborts"],
                            "kinds": entry["kinds"],
                            "victims": sorted(entry["victims"]),
                            "peers": sorted(entry["peers"]),
                        }
                        for address, entry in ranked[: args.top]
                    },
                    "delta_promotion_candidates": candidates,
                    "skew_estimate": skew,
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    rows = []
    for address, entry in ranked[: args.top]:
        kinds = ", ".join(
            f"{kind}:{count}" for kind, count in sorted(entry["kinds"].items())
        )
        rows.append(
            [
                address,
                entry["aborts"],
                kinds,
                len(entry["victims"]),
                len(entry["peers"]),
                "yes" if address in candidates else "",
            ]
        )
    skew_label = f"{skew:.2f}" if skew is not None else "n/a"
    print(
        render_table(
            f"contention: {len(table)} contended addresses, "
            f"skew estimate {skew_label}",
            ["address", "abort mass", "edge kinds", "victims", "peers", "promote?"],
            rows,
        )
    )
    if candidates:
        print(
            "delta-promotion candidates (W!=W-dominated): "
            + ", ".join(candidates[: args.top])
        )
    return 0


def _analyze_ledger(args: argparse.Namespace) -> int:
    from repro.obs import validate_ledger

    problems = validate_ledger(args.file)
    if problems:
        for problem in problems:
            print(problem, file=sys.stderr)
        print(f"{args.file}: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    print(f"{args.file}: ok")
    return 0


def _analyze_bytecode(args: argparse.Namespace) -> int:
    from repro.analysis.static import run_containment_sweep, shipped_contracts
    from repro.analysis.static.contracts import SweepResult, verify_shipped_contract
    from repro.analysis.static.report import bytecode_report_json, bytecode_report_text

    sweeps = []
    for contract in shipped_contracts():
        if args.contract != "all" and contract.name != args.contract:
            continue
        if args.check_containment:
            sweeps.append(
                run_containment_sweep(contract, sweeps=args.sweeps, seed=args.seed)
            )
        else:
            sweeps.append(
                SweepResult(
                    contract=contract.name,
                    reports=verify_shipped_contract(contract),
                )
            )
    if args.json:
        print(bytecode_report_json(sweeps, containment_checked=args.check_containment))
    else:
        print(bytecode_report_text(sweeps, containment_checked=args.check_containment))
    return 0 if all(sweep.ok for sweep in sweeps) else 1


def _analyze_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    import repro
    from repro.analysis.static import default_lint_paths, lint_paths
    from repro.analysis.static.report import lint_report_json, lint_report_text

    if args.paths:
        paths = [Path(p) for p in args.paths]
    else:
        paths = default_lint_paths(Path(repro.__file__).resolve().parent)
    select = None
    if args.select:
        select = [code.strip() for code in args.select.split(",") if code.strip()]
    findings = lint_paths(paths, select=select)
    rendered_paths = [str(p) for p in paths]
    if args.json:
        print(lint_report_json(findings, paths=rendered_paths))
    else:
        print(lint_report_text(findings, paths=rendered_paths))
    # Warning-severity findings (e.g. ND203) are advisory: they print
    # but do not gate the exit code.
    errors = [finding for finding in findings if finding.severity == "error"]
    return 0 if not errors else 1


def _analyze_certify(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.analysis.certify import certify_epoch
    from repro.core.export import parse_epoch_artifact

    files: list[Path] = []
    for raw in args.paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.glob("*.artifact.json")))
        else:
            files.append(path)
    if not files:
        print("no artifact files found", file=sys.stderr)
        return 2
    certificates = []
    for path in files:
        try:
            artifact = parse_epoch_artifact(json.loads(path.read_text()))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            print(f"invalid artifact {path}: {exc}", file=sys.stderr)
            return 2
        certificate = certify_epoch(
            artifact.rwsets,
            artifact,
            abort_reasons=artifact.abort_reasons,
            guard_aborted=artifact.guard_aborted,
            failed=artifact.failed,
            reason_counts=artifact.reason_counts,
            epoch_index=artifact.epoch_index,
            scheme=artifact.scheme,
        )
        certificates.append((path, certificate))
    if args.out:
        _write_certificates(args.out, [cert for _, cert in certificates])
    if args.json:
        print(
            json.dumps(
                {
                    "report": "schedule-certification",
                    "ok": all(cert.ok for _, cert in certificates),
                    "certificates": [cert.to_json() for _, cert in certificates],
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        for path, certificate in certificates:
            print(f"{path}: {certificate.summary()}")
            for finding in certificate.findings:
                print(f"  {finding.render()}", file=sys.stderr)
    rejected = [
        certificate
        for _, certificate in certificates
        if any(finding.severity == "error" for finding in certificate.findings)
    ]
    return 0 if not rejected else 1


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.errors import WorkloadError
    from repro.workload.trace import load_trace, save_trace, trace_info

    if args.trace_command == "record":
        transactions = generate_batch(args)
        count = save_trace(args.out, transactions)
        print(f"recorded {count} transactions to {args.out}")
        return 0
    try:
        if args.trace_command == "info":
            info = trace_info(args.file)
        else:
            transactions = load_trace(args.file)
    except (OSError, WorkloadError) as exc:
        print(f"invalid trace {args.file}: {exc}", file=sys.stderr)
        return 2
    if args.trace_command == "info":
        rows = [["transactions", info["count"]], ["distinct addresses", info["distinct_addresses"]]]
        rows.extend([f"  {name}", count] for name, count in info["functions"].items())
        print(render_table(f"trace {args.file}", ["metric", "value"], rows))
        return 0
    # run
    tracer, _ = _make_obs(args)
    scheme = make_scheme(args.scheme)
    if tracer is not None:
        scheme.tracer = tracer
    run = run_scheme(scheme, transactions)
    rows = [
        ["transactions", len(transactions)],
        ["committed", run.schedule.committed_count],
        ["aborted", run.schedule.aborted_count],
        ["latency", f"{run.total_seconds * 1000:.2f} ms"],
    ]
    rows.extend(
        [f"  aborted: {reason}", count]
        for reason, count in sorted(run.abort_reasons.items())
    )
    print(
        render_table(
            f"{args.scheme} on trace {args.file}", ["metric", "value"], rows
        )
    )
    _write_obs_outputs(args, tracer, lambda: _scheme_run_families(run))
    return 0


def _scheme_run_families(run):
    """The metric families of one scheduled batch and the process's
    collector counter, sorted by name."""
    from repro.obs.prom import Family, collector_family

    return [
        collector_family(),
        Family("schedule_latency_seconds", "summary", [({}, [run.total_seconds])]),
        Family(
            "txns_abort_reason_total",
            "counter",
            [({"reason": reason}, n) for reason, n in sorted(run.abort_reasons.items())],
        ),
        Family("txns_aborted_total", "counter", [({}, run.schedule.aborted_count)]),
        Family("txns_committed_total", "counter", [({}, run.schedule.committed_count)]),
    ]


COMMANDS = {
    "quickstart": cmd_quickstart,
    "schedule": cmd_schedule,
    "compare": cmd_compare,
    "simulate": cmd_simulate,
    "conflicts": cmd_conflicts,
    "analyze": cmd_analyze,
    "trace": cmd_trace,
    "top": cmd_top,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
