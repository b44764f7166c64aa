"""Mutation tests: the certifier must reject every corrupted schedule.

Each test generates real epoch artifacts from a certify-enabled cluster
run, applies one targeted corruption, and asserts the certifier rejects
it with the expected rule family — across skew and delta-CC
configurations (satellite of the certifier acceptance bar:
100% of corruptions must be caught).
"""

from __future__ import annotations

import copy

import pytest

from repro.analysis.certify import certify_epoch
from repro.core.export import parse_epoch_artifact
from repro.net import Cluster, ClusterConfig, NodeSpec
from repro.node import PipelineConfig
from repro.workload import SmallBankConfig

CONFIGS = [
    # (skew, delta_cc)
    (0.3, False),
    (0.9, True),
    (0.9, False),
    (0.6, True),
]


@pytest.fixture(scope="module")
def artifact_corpus():
    """One representative artifact payload per configuration."""
    corpus = {}
    for skew, delta in CONFIGS:
        spec = NodeSpec(
            chain_count=4,
            workload=SmallBankConfig(account_count=120, skew=skew, seed=11),
            pipeline=PipelineConfig(delta_cc=delta, certify=True),
        )
        with Cluster(spec, ClusterConfig(block_size=40)) as cluster:
            cluster.run_epochs(2)
            artifacts = list(cluster.node.pipeline.artifacts)
        # Prefer an epoch that actually aborted something, so the
        # abort-dropping mutation has material to work with.
        chosen = next(
            (payload for payload in artifacts if payload["aborted"]), artifacts[0]
        )
        corpus[(skew, delta)] = chosen
    return corpus


def recertify(payload):
    artifact = parse_epoch_artifact(payload)
    return certify_epoch(
        artifact.rwsets,
        artifact,
        abort_reasons=artifact.abort_reasons,
        guard_aborted=artifact.guard_aborted,
        failed=artifact.failed,
        reason_counts=artifact.reason_counts,
        epoch_index=artifact.epoch_index,
        scheme=artifact.scheme,
    )


def committed_group_of(payload):
    group_of = {}
    for index, (_seq, txids) in enumerate(payload["groups"]):
        for txid in txids:
            if txid not in payload["guard_aborted"]:
                group_of[txid] = index
    return group_of


def find_conflicting_pair(payload):
    """A committed (reader, write-like) pair in strictly ordered groups."""
    group_of = committed_group_of(payload)
    readers: dict[str, list[int]] = {}
    write_like: dict[str, list[int]] = {}
    for txid_str, units in payload["rwsets"].items():
        txid = int(txid_str)
        if txid not in group_of:
            continue
        for address in units["reads"]:
            readers.setdefault(address, []).append(txid)
        for address in list(units["writes"]) + list(units["deltas"]):
            write_like.setdefault(address, []).append(txid)
    for address in sorted(set(readers) & set(write_like)):
        for reader in readers[address]:
            for writer in write_like[address]:
                if reader != writer and group_of[reader] < group_of[writer]:
                    return reader, writer
    return None


def swap_txids(payload, first, second):
    for entry in payload["groups"]:
        entry[1] = [
            second if txid == first else first if txid == second else txid
            for txid in entry[1]
        ]


@pytest.mark.parametrize("config_key", CONFIGS, ids=str)
class TestMutationsRejected:
    def test_baseline_certifies(self, artifact_corpus, config_key):
        cert = recertify(artifact_corpus[config_key])
        assert cert.ok, cert.summary()

    def test_swapped_conflicting_txns_rejected(self, artifact_corpus, config_key):
        payload = copy.deepcopy(artifact_corpus[config_key])
        pair = find_conflicting_pair(payload)
        assert pair is not None, "corpus epoch has no cross-group conflict"
        swap_txids(payload, *pair)
        cert = recertify(payload)
        assert not cert.ok
        assert set(cert.finding_counts) & {
            "CERT111",
            "CERT112",
            "CERT113",
            "CERT114",
        }, cert.finding_counts

    def test_dropped_abort_rejected(self, artifact_corpus, config_key):
        payload = copy.deepcopy(artifact_corpus[config_key])
        assert payload["aborted"], "corpus epoch aborted nothing"
        victim = payload["aborted"][0]
        payload["aborted"] = payload["aborted"][1:]
        reason = payload["abort_reasons"].pop(str(victim), None) or payload[
            "abort_reasons"
        ].pop(victim, None)
        if reason is not None and payload["reason_counts"].get(reason):
            payload["reason_counts"][reason] -= 1
            if not payload["reason_counts"][reason]:
                del payload["reason_counts"][reason]
        cert = recertify(payload)
        assert not cert.ok
        assert "CERT121" in cert.finding_counts, cert.finding_counts

    def test_forged_delta_on_read_key_rejected(self, artifact_corpus, config_key):
        payload = copy.deepcopy(artifact_corpus[config_key])
        group_of = committed_group_of(payload)
        forged = None
        for txid_str, units in sorted(payload["rwsets"].items()):
            if int(txid_str) in group_of and units["reads"]:
                units["deltas"] = dict(units["deltas"])
                units["deltas"][units["reads"][0]] = 1
                forged = txid_str
                break
        assert forged is not None, "no committed reader to forge against"
        cert = recertify(payload)
        assert not cert.ok
        assert "CERT115" in cert.finding_counts, cert.finding_counts

    def test_broken_conservation_rejected(self, artifact_corpus, config_key):
        payload = copy.deepcopy(artifact_corpus[config_key])
        counts = dict(payload["reason_counts"])
        if counts:
            reason = sorted(counts)[0]
            counts[reason] += 1
        else:
            counts["scheme_conflict"] = 1
        payload["reason_counts"] = counts
        cert = recertify(payload)
        assert not cert.ok
        assert "CERT121" in cert.finding_counts, cert.finding_counts

    def test_unknown_abort_reason_rejected(self, artifact_corpus, config_key):
        payload = copy.deepcopy(artifact_corpus[config_key])
        assert payload["aborted"], "corpus epoch aborted nothing"
        victim = payload["aborted"][0]
        reasons = dict(payload["abort_reasons"])
        old = reasons.pop(str(victim), None)
        reasons[str(victim)] = "cosmic_rays"
        counts = dict(payload["reason_counts"])
        if old is not None and counts.get(old):
            counts[old] -= 1
            if not counts[old]:
                del counts[old]
            counts["cosmic_rays"] = counts.get("cosmic_rays", 0) + 1
        payload["abort_reasons"] = reasons
        payload["reason_counts"] = counts
        cert = recertify(payload)
        assert not cert.ok
        assert "CERT120" in cert.finding_counts, cert.finding_counts
