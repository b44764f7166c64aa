"""One replay in a fresh process: load the pre-mined blocks, bring a node up,
replay the epochs back-to-back, print one JSON object.

``run.py`` starts this once per repeat, because in-process repeats drift as
the heap grows (README.md, "Why fresh processes").  Modes: ``premine`` (the
probe node mines the blocks every other mode replays), ``timed`` (no
instrumentation at all), ``traced`` (seams from :mod:`seams` record spans)
and ``certify`` (``PipelineConfig(certify=True)``, every certificate checked).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pickle
import resource
import sys
import time
from contextlib import nullcontext

import seams
from workloads import WORKLOADS

# span name -> (seconds series, {count series: span field}); one row per epoch.
SEAM_SERIES = {
    "dag.append": ("append_s", {"blocks": "blocks"}),
    "executor.execute": (
        "execute_s",
        {"txns_executed": "txns", "reverted": "reverted", "gas": "gas"},
    ),
    "core.schedule": (
        "schedule_s",
        {
            name: name
            for name in (
                "scheduled",
                "addresses",
                "units",
                "aborted",
                "reordered",
                "revived",
                "commit_groups",
            )
        },
    ),
    "committer.commit": ("commit_s", {"committed": "committed", "writes": "writes"}),
    "state.seal": ("seal_s", {"dirty_keys": "dirty_keys"}),
    "storage.get": ("storage_get_s", {"gets": "count"}),
    "storage.put": ("storage_put_s", {"puts": "count", "bytes_put": "bytes"}),
}
CC_SERIES = ("acg_build_s", "rank_s", "sort_s", "validate_s")


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def replay(node, epochs: list, streaming: bool, log: seams.SpanLog | None) -> dict:
    """Closed loop, one client: hand over epoch *i* only after the call for
    epoch *i − 1* returned.

    ``steps[i]`` is the duration of the ``receive_epoch`` / ``submit_epoch``
    call (the final ``drain`` is added to the last); ``latencies[i]`` runs
    from handing epoch *i*'s blocks over to its ``EpochReport`` coming back —
    the same call on the barrier path, the *next* ``submit_epoch`` (or the
    ``drain``) when streaming.
    """
    feed = node.submit_epoch if streaming else node.receive_epoch
    handed: list[float] = []
    returned: list[float] = []
    fronts: list[float] = []
    cpu_before = _cpu_seconds()
    for index, blocks in enumerate(epochs):
        if log is not None:
            log.epoch = index
        span = log.span("pipeline.epoch") if log is not None else nullcontext()
        start = time.perf_counter()
        with span:
            report = feed(blocks)
        end = time.perf_counter()
        handed.append(start)
        fronts.append(end - start)
        if report is not None:
            returned.append(end)
    drain_start = time.perf_counter()
    span = log.span("engine.drain") if log is not None else nullcontext()
    with span:
        tail = node.drain()
    drain_end = time.perf_counter()
    returned.extend(drain_end for _ in tail)
    cpu_s = _cpu_seconds() - cpu_before
    if len(returned) != len(epochs):
        raise AssertionError(
            f"{len(epochs)} epochs fed, {len(returned)} reports returned"
        )
    steps = list(fronts)
    steps[-1] += drain_end - drain_start
    return {
        "steps": steps,
        "fronts": fronts,
        "latencies": [done - start for start, done in zip(handed, returned)],
        "cpu_s": cpu_s,
    }


def trace_table(log: seams.SpanLog, timing: dict, cc_rows: list, epochs: int) -> dict:
    """Fold the spans into one row of seconds (``*_s``) and counts per epoch."""
    table: dict[str, list] = {
        "epoch_s": list(timing["steps"]),
        "front_s": list(timing["fronts"]),
    }
    for name in ("gc_s", "gc_glue_s", *CC_SERIES):
        table[name] = [0.0] * epochs
    for seconds, counts in SEAM_SERIES.values():
        table[seconds] = [0.0] * epochs
        table.update({name: [0] * epochs for name in counts})
    for span in log.spans:
        index = span["epoch"]
        if not 0 <= index < epochs:
            continue
        table["gc_s"][index] += span.get("gc_s", 0.0)
        if span["name"] in ("pipeline.epoch", "engine.drain"):
            table["gc_glue_s"][index] += span["gc_s"]
        if span["name"] in SEAM_SERIES:
            seconds, counts = SEAM_SERIES[span["name"]]
            table[seconds][index] += seams.busy_seconds(span)
            for name, field in counts.items():
                table[name][index] += span[field]
    for row in cc_rows:
        for name in CC_SERIES:
            table[name][row["epoch"]] = row[name]
    return table


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--blocks", required=True)
    parser.add_argument("--epochs", type=int, required=True)
    parser.add_argument(
        "--mode", required=True, choices=("premine", "timed", "traced", "certify")
    )
    parser.add_argument("--store-dir")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--accounts", type=int, required=True)
    args = parser.parse_args(argv)
    workload = dataclasses.replace(WORKLOADS[args.workload], accounts=args.accounts)

    if args.mode == "premine":
        mined = seams.premine(workload, args.seed, args.epochs)
        with open(args.blocks, "wb") as handle:
            pickle.dump(mined, handle, protocol=pickle.HIGHEST_PROTOCOL)
        json.dump({"fingerprints": mined["fingerprints"]}, sys.stdout)
        sys.stdout.write("\n")
        return 0

    # Written by run.py in this same run; nothing else is ever unpickled.
    with open(args.blocks, "rb") as handle:
        mined = pickle.load(handle)
    epochs = mined["epochs"][: args.epochs]

    log = seams.SpanLog() if args.mode == "traced" else None
    setup_start = time.perf_counter()
    node, store = seams.build_node(
        workload,
        args.store_dir,
        mined["genesis"],
        log=log,
        certify=args.mode == "certify",
    )
    batches = seams.instrument(node, log) if log is not None else []
    setup_s = time.perf_counter() - setup_start

    out: dict = {"mode": args.mode, "setup_s": setup_s}
    with node:
        out.update(replay(node, epochs, workload.streaming, log))
        out["fingerprints"] = [seams.fingerprint(r) for r in node.reports]
        out["engine"] = seams.engine_stats(node)
        if args.mode == "certify":
            out["certify"] = seams.recertify(node)
        if log is not None:
            results = seams.read_counts(node.scheduler, batches)
            cc_rows = seams.replay_cc_subphases(node.scheduler, results, epochs)
            out["table"] = trace_table(log, out, cc_rows, len(epochs))
            out["spans"] = log.spans
            out["user_bytes_put"] = store.bytes_put
    out["sstables_end"] = seams.sstable_count(store)
    store.close()
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
