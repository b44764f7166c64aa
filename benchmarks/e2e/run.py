"""The repo benchmark: deterministic block replays through a real ``FullNode``.

One command measures every workload, prints every metric by name with its
unit, checks the outputs and writes the result JSON and the trace files::

    python benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S] [--out FILE]
    python benchmarks/e2e/run.py --smoke
    python benchmarks/e2e/run.py --compare A.json B.json

With ``--trace 0|1`` it makes the single pass the benchmark driver asks for
(end-to-end metrics untraced, or per-layer metrics traced) and prints one
JSON object as the last line.  README.md has the metric and workload tables.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import stats
from workloads import (
    BLOCK_SIZE,
    CERTIFY_EPOCHS,
    DEFAULT_SEED,
    OMEGA,
    REPEATS,
    SMOKE_ACCOUNTS,
    SMOKE_EPOCHS,
    SMOKE_REPEATS,
    TRACED_EPOCHS,
    TRACED_REPEATS,
    UNTRACED_REFERENCE_REPEATS,
    WORKLOADS,
    Workload,
    epochs_for,
)

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
SRC = REPO / "src"
CONTRACT = REPO / "BENCHMARK.json"
RESULTS = HERE / "results"
WORK = HERE / "_work"

DESIGN_TAIL_PERCENTILE = 75.0
MIN_COVERAGE = 0.90
MIN_HIT_RATE = 0.5
MAJORITY_TIE = 0.95
CALIBRATION_WARN_SPREAD = 0.20
CHILD_TIMEOUT_S = 170

# Counts: exact, must repeat; a --compare of two runs of one seed demands equality.
EXACT_END_TO_END = ("abort_rate",)
EXACT_UNITS = ("count", "B", "B/txn")


def load_contract() -> dict:
    return json.loads(CONTRACT.read_text())


# ----------------------------------------------------------------- the host


def host_record() -> dict:
    """Who measured: enough to tell a noisy host from a slow build."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    calibration = stats.calibrate()
    if calibration["spread"] > CALIBRATION_WARN_SPREAD:
        print(
            f"WARNING: calibration loop varied {calibration['spread']:.0%} "
            f"(min {calibration['min_s'] * 1e3:.1f} ms, max "
            f"{calibration['max_s'] * 1e3:.1f} ms) — this host is noisy",
            file=sys.stderr,
        )
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": commit or "unknown",
        "loadavg_before": list(os.getloadavg()),
        "calibration": calibration,
    }


# ------------------------------------------------------------- the children


def run_child(
    workload: Workload, blocks: Path, epochs: int, mode: str, tag: str, *extra: str
) -> dict:
    """One fresh process (pre-mine or replay); the store directory lives
    only this long.  Even the pre-mine runs in a child: a replay process
    inherits the parent's peak RSS across ``exec``, so the parent stays small.
    """
    store_dir = blocks.parent / f"store-{tag}"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    try:
        done = subprocess.run(
            [
                sys.executable,
                str(HERE / "child.py"),
                "--workload",
                workload.name,
                "--blocks",
                str(blocks),
                "--epochs",
                str(epochs),
                "--mode",
                mode,
                "--store-dir",
                str(store_dir),
                "--accounts",
                str(workload.accounts),
                *extra,
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        if done.returncode != 0:
            raise RuntimeError(
                f"{workload.name} {mode} replay failed ({done.returncode}):\n"
                f"{done.stderr[-2000:]}"
            )
        out = json.loads(done.stdout.splitlines()[-1])
        out["disk_bytes"] = (
            sum(f.stat().st_size for f in store_dir.rglob("*") if f.is_file())
            if store_dir.is_dir()
            else 0
        )
        return out
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)


# ------------------------------------------------------------------ metrics


def is_timing(series: str) -> bool:
    """Traced-table series are seconds (``*_s``, floored) or exact counts."""
    return series.endswith("_s")


def end_to_end(timed: list[dict], prints: list[list]) -> dict:
    """The seven end-to-end metrics, on per-epoch floors (README.md)."""
    committed = sum(p[1] for p in prints)
    aborted = sum(p[2] for p in prints)
    attempted = sum(p[4] for p in prints)
    step_floors = stats.floors([c["steps"] for c in timed])
    latency_floors = stats.floors([c["latencies"] for c in timed])
    # Below 20 floors no percentile has ten samples beyond it; p75 is the
    # design-length choice (ten beyond at E = 40) and the JSON says how many
    # samples really lie beyond it.
    tail_pct = stats.tail_percentile(len(latency_floors)) or DESIGN_TAIL_PERCENTILE
    metrics = {
        "committed_tps": committed / sum(step_floors),
        "epoch_latency_p50_ms": statistics.median(latency_floors) * 1e3,
        "epoch_latency_tail_ms": stats.percentile(latency_floors, tail_pct) * 1e3,
        "abort_rate": aborted / attempted,
        "cpu_s_per_ktxn": min(c["cpu_s"] for c in timed) / committed * 1e3,
        "peak_rss_mb": statistics.median(c["maxrss_kb"] for c in timed) / 1024,
        "setup_s": min(c["setup_s"] for c in timed),
    }
    per_repeat = {
        "committed_tps": [committed / sum(c["steps"]) for c in timed],
        "epoch_latency_p50_ms": [
            statistics.median(c["latencies"]) * 1e3 for c in timed
        ],
        "epoch_latency_tail_ms": [
            stats.percentile(c["latencies"], tail_pct) * 1e3 for c in timed
        ],
        "cpu_s_per_ktxn": [c["cpu_s"] / committed * 1e3 for c in timed],
        "peak_rss_mb": [c["maxrss_kb"] / 1024 for c in timed],
        "setup_s": [c["setup_s"] for c in timed],
    }
    return {
        "metrics": metrics,
        "tail": {
            "percentile": tail_pct,
            "samples": len(latency_floors),
            "samples_beyond": int(len(latency_floors) * (100 - tail_pct) / 100),
        },
        # Diagnostics, never gated: what single repeats saw, and how far
        # they spread (--compare calls a metric unresolved on this).
        "raw": {name: statistics.median(values) for name, values in per_repeat.items()},
        "spread": {
            name: stats.quartile_spread(values) if len(values) > 1 else 0.0
            for name, values in per_repeat.items()
        },
    }


def per_layer(
    workload: Workload,
    traced: list[dict],
    untraced: list[dict],
    certify: list[dict],
    premine_s: float,
) -> dict:
    """Per-epoch means of floors from the traced pass; counts are exact."""
    table = traced[0]["table"]
    epochs = len(table["epoch_s"])
    ms = {
        name: statistics.fmean(stats.floors([c["table"][name] for c in traced])) * 1e3
        for name in table
        if is_timing(name)
    }
    count = {name: statistics.fmean(table[name]) for name in table if not is_timing(name)}
    committed = sum(table["committed"])
    seams_ms = ms["execute_s"] + ms["schedule_s"] + ms["commit_s"] + ms["append_s"]
    on_caller = ms["execute_s"] + ms["append_s"]
    if not workload.streaming:
        on_caller = seams_ms
    cc_parts = ms["rank_s"] + ms["sort_s"] + ms["validate_s"]
    if not workload.streaming:
        # The streamed graph is built on the front stage, outside schedule_dense.
        cc_parts += ms["acg_build_s"]
    storage_ms = ms["storage_get_s"] + ms["storage_put_s"]
    # Tracing overhead: call durations without the final drain (a longer
    # untraced replay drains later), floors over equally many repeats (the
    # side with more would look faster).
    pairs = min(len(traced), len(untraced))
    traced_wall = sum(stats.floors([c["table"]["front_s"] for c in traced[:pairs]]))
    untraced_wall = sum(
        stats.floors([c["fronts"][:epochs] for c in untraced[:pairs]])
    )
    first = traced[0]
    engine = first["engine"]
    return {
        "dag.append_ms": ms["append_s"],
        "dag.blocks_per_epoch": count["blocks"],
        "executor.execute_ms": ms["execute_s"],
        "executor.us_per_txn": ms["execute_s"] * 1e3 / max(count["txns_executed"], 1),
        "executor.txns_per_epoch": count["txns_executed"],
        "executor.reverted_per_epoch": count["reverted"],
        "vm.gas_per_txn": count["gas"] / max(count["txns_executed"], 1),
        "core.schedule_ms": ms["schedule_s"],
        "core.acg_build_ms": ms["acg_build_s"],
        "core.rank_ms": ms["rank_s"],
        "core.sort_ms": ms["sort_s"],
        "core.validate_ms": ms["validate_s"],
        "core.assemble_ms": ms["schedule_s"] - cc_parts,
        "core.addresses_per_epoch": count["addresses"],
        "core.units_per_epoch": count["units"],
        "core.aborted_per_epoch": count["aborted"],
        "core.reordered_per_epoch": count["reordered"],
        "core.revived_per_epoch": count["revived"],
        "core.commit_groups_per_epoch": count["commit_groups"],
        "core.commit_ratio": count["committed"] / max(count["scheduled"], 1),
        "committer.commit_ms": ms["commit_s"],
        "committer.apply_ms": ms["commit_s"] - ms["seal_s"],
        "committer.writes_per_epoch": count["writes"],
        "state.seal_ms": ms["seal_s"],
        "state.seal_self_ms": ms["seal_s"] - storage_ms,
        "state.dirty_keys_per_epoch": count["dirty_keys"],
        "state.seal_us_per_key": ms["seal_s"] * 1e3 / max(count["dirty_keys"], 1),
        "storage.get_ms": ms["storage_get_s"],
        "storage.put_ms": ms["storage_put_s"],
        "storage.gets_per_epoch": count["gets"],
        "storage.puts_per_epoch": count["puts"],
        "storage.bytes_put_per_epoch": count["bytes_put"],
        "storage.bytes_put_per_committed_txn": sum(table["bytes_put"])
        / max(committed, 1),
        "storage.disk_bytes_per_user_byte": first["disk_bytes"]
        / max(first["user_bytes_put"], 1),
        "storage.sstables_end": first["sstables_end"],
        "engine.front_ms": ms["front_s"] if workload.streaming else 0.0,
        "engine.hit_rate": engine["hit_rate"],
        "engine.reexecuted_per_epoch": engine["reexecuted"] / epochs,
        "engine.fallback_epochs": engine["fallback_epochs"],
        "engine.overlap_ratio": seams_ms / ms["epoch_s"],
        "pipeline.epoch_ms": ms["epoch_s"],
        "pipeline.other_ms": ms["epoch_s"] - on_caller - ms["gc_glue_s"],
        "pipeline.coverage": (seams_ms + ms["gc_glue_s"]) / ms["epoch_s"],
        "runtime.gc_ms": ms["gc_s"],
        "certify.ms_per_epoch": statistics.fmean([row["seconds"] for row in certify]) * 1e3,
        "certify.conflict_edges_per_epoch": statistics.fmean(
            [row["conflict_edges"] for row in certify]
        ),
        "trace.overhead_pct": (traced_wall - untraced_wall) / untraced_wall * 100,
        "bench.premine_s": premine_s,
    }


# ------------------------------------------------------------------- checks


def check_outputs(probe: list[list], children: dict[str, list[dict]]) -> list[str]:
    """Every replay of the same blocks must report the same epochs."""
    failures = []
    for index, (_, committed, aborted, failed, attempted) in enumerate(probe):
        if committed + aborted + failed != attempted:
            failures.append(
                f"epoch {index}: committed {committed} + aborted {aborted} + "
                f"failed {failed} != input {attempted}"
            )
    for label, group in children.items():
        for repeat, child in enumerate(group):
            prints = child["fingerprints"]
            if prints != probe[: len(prints)]:
                differing = next(
                    i for i, (a, b) in enumerate(zip(prints, probe)) if a != b
                )
                failures.append(
                    f"{label} repeat {repeat}: epoch {differing} "
                    f"{prints[differing]} differs from the probe's {probe[differing]}"
                )
    return failures


def check_traced(
    workload: Workload, traced: list[dict], certify: list[dict], layer: dict
) -> list[str]:
    """Counts repeat, certificates hold, and the intended path was timed."""
    failures = []
    for name in traced[0]["table"]:
        if is_timing(name):
            continue
        if any(c["table"][name] != traced[0]["table"][name] for c in traced[1:]):
            failures.append(f"count series {name} differs between traced repeats")
    rejected = [row["epoch"] for row in certify if not row["ok"]]
    if rejected:
        failures.append(f"epochs {rejected} failed certification")
    if workload.streaming:
        if layer["engine.fallback_epochs"] != 0:
            failures.append(
                f"{layer['engine.fallback_epochs']} epochs fell back to the barrier path"
            )
        if layer["engine.hit_rate"] <= MIN_HIT_RATE:
            failures.append(f"speculation hit rate {layer['engine.hit_rate']:.2f}")
    elif layer["pipeline.coverage"] < MIN_COVERAGE:
        failures.append(
            f"pipeline.coverage {layer['pipeline.coverage']:.3f} < {MIN_COVERAGE}: "
            "an untimed layer is an unmeasured layer"
        )
    return failures


def majority_note(workload: Workload, layer: dict) -> str:
    """Which top-level seam is largest, against the workload's purpose.

    Advisory, not a check: on ``headline-svm-lsm`` execution and commit tie
    within a few percent, so the intended seam counts as the majority while
    it is within ``MAJORITY_TIE`` of the largest.
    """
    top = {
        name: layer[name]
        for name in (
            "executor.execute_ms",
            "core.schedule_ms",
            "committer.commit_ms",
            "dag.append_ms",
        )
    }
    largest = max(top, key=top.get)
    if workload.majority == "engine":
        return f"largest seam {largest}; streaming path timed (see engine.*)"
    intended = top[workload.majority] >= MAJORITY_TIE * top[largest]
    verdict = "as intended" if intended else "MISLABELLED"
    return f"largest seam {largest} (intended {workload.majority}): {verdict}"


# -------------------------------------------------------------- one workload


def measure(
    workload: Workload,
    seed: int,
    epochs: int,
    repeats: int,
    traced_repeats: int,
    want_end_to_end: bool,
    want_per_layer: bool,
) -> dict:
    """Pre-mine once, then replay in fresh processes; returns the results,
    the metrics asked for and every failed check."""
    work = WORK / f"{os.getpid()}-{workload.name}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        blocks = work / "blocks.pkl"
        start = time.perf_counter()
        probe = run_child(
            workload, blocks, epochs, "premine", "probe", "--seed", str(seed)
        )["fingerprints"]
        premine_s = time.perf_counter() - start

        traced_epochs = min(epochs, TRACED_EPOCHS)
        replayed = probe[: epochs if want_end_to_end else traced_epochs]
        attempted = sum(p[4] for p in replayed)
        result: dict = {
            "workload": workload.describe(),
            "epochs": len(replayed),
            "seed": seed,
            "ops_attempted": attempted,
            "ops_failed": attempted - sum(p[1] for p in replayed),
            # Transactions with no outcome at all: 0 while every epoch
            # satisfies committed + aborted + reverted == input.
            "ops_unaccounted": attempted - sum(sum(p[1:4]) for p in replayed),
        }
        children: dict[str, list[dict]] = {}
        if want_end_to_end:
            children["timed"] = [
                run_child(workload, blocks, epochs, "timed", f"timed-{k}")
                for k in range(repeats)
            ]
        if want_per_layer:
            children["traced"] = [
                run_child(workload, blocks, traced_epochs, "traced", f"traced-{k}")
                for k in range(traced_repeats)
            ]
            children["certify"] = [
                run_child(
                    workload, blocks, min(epochs, CERTIFY_EPOCHS), "certify", "certify"
                )
            ]
            if not want_end_to_end:
                children["untraced"] = [
                    run_child(workload, blocks, traced_epochs, "timed", f"plain-{k}")
                    for k in range(min(UNTRACED_REFERENCE_REPEATS, traced_repeats))
                ]
        failures = check_outputs(probe, children)
        if want_end_to_end:
            result.update(end_to_end(children["timed"], probe))
            result["final_root"] = probe[-1][0]
            result["fingerprint_sha256"] = hashlib.sha256(
                json.dumps(probe).encode()
            ).hexdigest()
        if want_per_layer:
            certify = children["certify"][0]["certify"]
            layer = per_layer(
                workload,
                children["traced"],
                children.get("timed") or children["untraced"],
                certify,
                premine_s,
            )
            failures += check_traced(workload, children["traced"], certify, layer)
            result["per_layer"] = layer
            result["majority"] = majority_note(workload, layer)
            RESULTS.mkdir(exist_ok=True)
            (RESULTS / f"trace-{workload.name}.json").write_text(
                json.dumps(
                    {
                        "workload": workload.name,
                        "seed": seed,
                        "epochs": traced_epochs,
                        "time_unit": "seconds since the replay process began tracing",
                        "repeats": [c["spans"] for c in children["traced"]],
                    }
                )
                + "\n"
            )
        result["failed_checks"] = failures
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


# ----------------------------------------------------------------- printing


def units_of(contract: dict) -> dict[str, str]:
    return {
        m["name"]: m["unit"] for m in contract["end_to_end"] + contract["per_layer"]
    }


def print_workload(result: dict, units: dict[str, str]) -> None:
    name = result["workload"]["name"]
    print(f"\n== {name}  (seed {result['seed']}, {result['epochs']} epochs × "
          f"{OMEGA * BLOCK_SIZE} txns)")
    for metric, value in result.get("metrics", {}).items():
        print(f"  {metric:<36} {value:>14.4f} {units[metric]}")
    if "tail" in result:
        tail = result["tail"]
        print(
            f"  (tail = p{tail['percentile']:g} of {tail['samples']} epoch "
            f"latency floors, {tail['samples_beyond']} beyond)"
        )
        print(f"  {'ops_attempted':<36} {result['ops_attempted']:>14d} count")
        print(f"  {'ops_failed':<36} {result['ops_failed']:>14d} count")
        for metric, value in result["raw"].items():
            print(f"  raw_{metric:<32} {value:>14.4f} {units[metric]}"
                  f"  (repeat spread {result['spread'][metric]:.1%})")
    for metric, value in result.get("per_layer", {}).items():
        print(f"  {metric:<36} {value:>14.4f} {units[metric]}")
    if "majority" in result:
        print(f"  {result['majority']}")
    for failure in result["failed_checks"]:
        print(f"  CHECK FAILED: {failure}")


def check_names(result: dict, contract: dict) -> list[str]:
    """The run must emit exactly the metrics BENCHMARK.json declares."""
    failures = []
    for section, key in (("end_to_end", "metrics"), ("per_layer", "per_layer")):
        if key not in result:
            continue
        declared = {m["name"] for m in contract[section]}
        emitted = set(result[key])
        if declared != emitted:
            failures.append(
                f"{section}: declared-only {sorted(declared - emitted)}, "
                f"emitted-only {sorted(emitted - declared)}"
            )
    return failures


# ------------------------------------------------------------------ compare


def compare(path_a: str, path_b: str, contract: dict) -> int:
    """Apply BENCHMARK.json's bounds to two result files (A = before)."""
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    same_inputs = all(
        a["config"][key] == b["config"][key] for key in ("seed", "epochs")
    )
    worse = 0
    print(f"{'workload':<18} {'metric':<24} {'A':>12} {'B':>12} {'change':>8}  verdict")
    for name in a["workloads"]:
        if name not in b["workloads"]:
            print(f"{name:<18} missing from {path_b}")
            worse += 1
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric in contract["end_to_end"]:
            key = metric["name"]
            va, vb = wa["metrics"][key], wb["metrics"][key]
            sign = 1 if metric["better"] == "lower" else -1
            worsening = sign * (vb - va) / va
            spread = max(wa["spread"].get(key, 0.0), wb["spread"].get(key, 0.0))
            if key in EXACT_END_TO_END and same_inputs:
                verdict = "within-bound" if va == vb else "worse (count differs)"
            elif worsening > metric["bound"]:
                verdict = "worse"
            elif spread > metric["bound"]:
                verdict = "unresolved (spread wider than bound)"
            elif worsening < -metric["bound"]:
                verdict = "better"
            else:
                verdict = "within-bound"
            worse += verdict.startswith("worse")
            print(
                f"{name:<18} {key:<24} {va:>12.4f} {vb:>12.4f} "
                f"{(vb - va) / va:>+8.1%}  {verdict}"
            )
        if same_inputs:
            for key in ("ops_attempted", "ops_failed", "final_root", "fingerprint_sha256"):
                if wa[key] != wb[key]:
                    print(f"{name:<18} {key:<24} differs: {wa[key]} vs {wb[key]}")
                    worse += 1
            counts_a = exact_counts(wa.get("per_layer", {}), contract)
            counts_b = exact_counts(wb.get("per_layer", {}), contract)
            for key in sorted(set(counts_a) & set(counts_b)):
                if counts_a[key] != counts_b[key]:
                    print(f"{name:<18} {key:<24} differs: {counts_a[key]} vs {counts_b[key]}")
                    worse += 1
    if same_inputs and not worse:
        print("counts, roots and per-layer counts identical")
    print(f"{worse} worse")
    return 1 if worse else 0


def exact_counts(layer: dict, contract: dict) -> dict:
    """The per-layer metrics that are counts (must repeat exactly)."""
    counted = {m["name"] for m in contract["per_layer"] if m["unit"] in EXACT_UNITS}
    return {name: value for name, value in layer.items() if name in counted}


# --------------------------------------------------------------------- main


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--out")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    if not CONTRACT.is_file():
        print(f"no BENCHMARK.json at {CONTRACT}", file=sys.stderr)
        return 2
    contract = load_contract()
    if args.compare:
        return compare(*args.compare, contract)
    if not (SRC / "repro").is_dir():
        print(f"the program's source is not at {SRC}; nothing to measure", file=sys.stderr)
        return 2

    seconds = args.seconds if args.seconds is not None else contract["run_seconds"]
    if args.smoke:
        epochs, repeats, traced_repeats = SMOKE_EPOCHS, SMOKE_REPEATS, 1
    else:
        epochs, repeats, traced_repeats = epochs_for(seconds), REPEATS, TRACED_REPEATS
    names = [args.workload] if args.workload else list(WORKLOADS)
    driver_pass = args.trace is not None
    if driver_pass and len(names) != 1:
        print("--trace needs --workload", file=sys.stderr)
        return 2

    host = host_record()
    units = units_of(contract)
    results = {}
    for name in names:
        workload = WORKLOADS[name]
        if args.smoke:
            # Plumbing check, not a measurement: a small state keeps the
            # five bring-ups of largestate-lsm from taking half a minute.
            workload = dataclasses.replace(
                workload, accounts=min(workload.accounts, SMOKE_ACCOUNTS)
            )
        result = measure(
            workload,
            args.seed,
            epochs,
            repeats,
            traced_repeats,
            want_end_to_end=args.trace != 1,
            want_per_layer=args.trace != 0,
        )
        result["failed_checks"] += check_names(result, contract)
        print_workload(result, units)
        results[name] = result
    host["loadavg_after"] = list(os.getloadavg())
    correct = not any(r["failed_checks"] for r in results.values())

    out = args.out or (None if driver_pass else str(RESULTS / "latest.json"))
    if out:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(
            json.dumps(
                {
                    "benchmark": "e2e",
                    "correct": correct,
                    "host": host,
                    "config": {
                        "seed": args.seed,
                        "seconds": seconds,
                        "epochs": epochs,
                        "repeats": repeats,
                        "traced_repeats": traced_repeats,
                        "smoke": args.smoke,
                        "omega": OMEGA,
                        "block_size": BLOCK_SIZE,
                    },
                    "workloads": results,
                },
                indent=1,
                sort_keys=True,
            )
            + "\n"
        )
        print(f"\nwrote {out}")
    print(f"\noutputs {'correct' if correct else 'INCORRECT'}")

    if driver_pass:
        result = results[names[0]]
        values = result["metrics"] if args.trace == 0 else result["per_layer"]
        print(
            json.dumps(
                {
                    "correct": correct,
                    # A CC abort or a contract revert is an outcome the node
                    # reports (abort_rate measures it), not a failed operation;
                    # ops_failed in the result file counts those.
                    "attempted": result["ops_attempted"],
                    "failed": result["ops_unaccounted"],
                    "metrics": {
                        name: {"value": value, "unit": units[name]}
                        for name, value in values.items()
                    },
                }
            )
        )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
