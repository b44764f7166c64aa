"""Ledger ↔ certifier agreement: every attributed edge is a real conflict.

The flight ledger claims *why* each transaction aborted — a conviction
of the form ``(peer, address, kind)``.  The epoch artifact carries the
certifier's exact inputs (the per-transaction read/write/delta sets), so
the conflict relation can be rebuilt independently of the scheduler that
issued the conviction.  This property test checks, across skew ×
delta-CC:

* every edge on an ``unserializable_write``/``doomed_reorder`` abort
  names a pair of transactions that genuinely touch the contended
  address with the accesses the edge kind asserts (R-W, W-W, R-D, W-D);
* every ``delta_overflow`` conviction names an address the victim
  actually delta-writes;
* per-epoch ledger abort counts reconcile with the artifact's taxonomy
  counts (conservation), and the artifact re-certifies cleanly.
"""

from __future__ import annotations

import pytest

from repro.analysis.certify import certify_epoch
from repro.core.export import parse_epoch_artifact
from repro.net import Cluster, ClusterConfig, NodeSpec
from repro.node import PipelineConfig
from repro.obs import FlightLedger
from repro.obs.taxonomy import (
    DELTA_OVERFLOW,
    DOOMED_REORDER,
    EDGE_DELTA_GUARD,
    EDGE_RD,
    EDGE_RW,
    EDGE_WD,
    EDGE_WW,
    UNKNOWN_PEER,
    UNSERIALIZABLE_WRITE,
)
from repro.workload import SmallBankConfig

EPOCHS = 2

SWEEP = [
    pytest.param(0.5, False, id="mild"),
    pytest.param(0.95, False, id="hot"),
    pytest.param(0.95, True, id="hot-delta"),
    pytest.param(0.9, True, id="0.9-delta"),
]


def _units(artifact, txid):
    rwset = artifact.rwsets.get(txid)
    if rwset is None:
        return None
    return (
        set(rwset["reads"]),
        set(rwset["writes"]),
        set(rwset["deltas"]),
    )


def _edge_holds(kind, victim_units, peer_units):
    """Does the conflict relation rebuilt from rwsets contain this edge?"""
    v_reads, v_writes, v_deltas = victim_units
    if kind == EDGE_DELTA_GUARD:
        # Commit-time fold overflow: the victim must delta the address;
        # the peer (the last toucher) is checked below when known.
        return bool(v_deltas)
    if peer_units is None:
        # UNKNOWN_PEER convictions still require the victim-side access.
        return {
            EDGE_RW: bool(v_writes | v_reads),
            EDGE_WW: bool(v_writes),
            EDGE_RD: bool(v_deltas | v_reads),
            EDGE_WD: bool(v_deltas | v_writes),
        }.get(kind, False)
    p_reads, p_writes, p_deltas = peer_units
    if kind == EDGE_RW:
        return bool(v_writes & p_reads) or bool(v_reads & p_writes)
    if kind == EDGE_WW:
        return bool(v_writes & p_writes)
    if kind == EDGE_RD:
        return bool(v_deltas & p_reads) or bool(v_reads & p_deltas)
    if kind == EDGE_WD:
        return bool(v_deltas & p_writes) or bool(v_writes & p_deltas)
    return False


def _address_holds(kind, address, victim_units, peer_units):
    """Same check, pinned to the contended address the edge names."""
    v_reads, v_writes, v_deltas = victim_units
    if kind == EDGE_DELTA_GUARD:
        if address not in v_deltas:
            return False
        if peer_units is None:
            return True
        p_reads, p_writes, p_deltas = peer_units
        return address in (p_writes | p_deltas)
    victim_touch = {
        EDGE_RW: v_reads | v_writes,
        EDGE_WW: v_writes,
        EDGE_RD: v_reads | v_deltas,
        EDGE_WD: v_writes | v_deltas,
    }.get(kind, set())
    if address not in victim_touch:
        return False
    if peer_units is None:
        return True
    p_reads, p_writes, p_deltas = peer_units
    peer_touch = {
        EDGE_RW: p_reads | p_writes,
        EDGE_WW: p_writes,
        EDGE_RD: p_reads | p_deltas,
        EDGE_WD: p_writes | p_deltas,
    }.get(kind, set())
    return address in peer_touch


@pytest.mark.parametrize("skew,delta_cc", SWEEP)
def test_ledger_edges_agree_with_rebuilt_conflict_graph(skew, delta_cc):
    ledger = FlightLedger()
    spec = NodeSpec(
        chain_count=3,
        workload=SmallBankConfig(account_count=150, skew=skew, seed=7),
        pipeline=PipelineConfig(delta_cc=delta_cc, certify=True),
    )
    with Cluster(spec, ClusterConfig(block_size=40), ledger=ledger) as cluster:
        run = cluster.run_epochs(EPOCHS)
        artifacts = {
            payload["epoch"]: parse_epoch_artifact(payload)
            for payload in cluster.node.pipeline.artifacts
        }

    aborts = [e for e in ledger.events() if e["kind"] == "abort"]
    assert any(a["reason"] == UNSERIALIZABLE_WRITE for a in aborts), (
        "sweep point produced no attributed aborts; tighten the workload"
    )

    checked_edges = 0
    for event in aborts:
        artifact = artifacts[event["epoch"]]
        reason = event["reason"]
        if reason not in (UNSERIALIZABLE_WRITE, DOOMED_REORDER, DELTA_OVERFLOW):
            continue
        victim_units = _units(artifact, event["txid"])
        assert victim_units is not None, (
            f"abort victim T{event['txid']} missing from certifier inputs"
        )
        assert event["edges"], f"unattributed {reason} abort: {event}"
        for peer, address, kind in event["edges"]:
            peer_units = None if peer == UNKNOWN_PEER else _units(artifact, peer)
            if peer != UNKNOWN_PEER:
                assert peer_units is not None, (
                    f"edge peer T{peer} missing from certifier inputs"
                )
            assert _edge_holds(kind, victim_units, peer_units), (
                f"edge {kind} between T{event['txid']} and T{peer} has no "
                f"supporting accesses in the rebuilt graph"
            )
            assert _address_holds(kind, address, victim_units, peer_units), (
                f"contended address {address!r} not touched as {kind} asserts"
            )
            checked_edges += 1
    assert checked_edges > 0

    # Conservation: ledger abort counts per epoch match the artifact
    # taxonomy, and the artifact still certifies from first principles.
    for outcome in run.outcomes:
        epoch = outcome.report.epoch_index
        artifact = artifacts[epoch]
        observed: dict[str, int] = {}
        for event in aborts:
            if event["epoch"] == epoch:
                observed[event["reason"]] = observed.get(event["reason"], 0) + 1
        assert observed == dict(artifact.reason_counts)
        cert = certify_epoch(
            artifact.rwsets,
            artifact,
            abort_reasons=artifact.abort_reasons,
            guard_aborted=artifact.guard_aborted,
            failed=artifact.failed,
            reason_counts=artifact.reason_counts,
            epoch_index=artifact.epoch_index,
            scheme=artifact.scheme,
        )
        assert cert.ok, cert.summary()
