"""Tests for the proof-carrying schedule certifier.

Three layers: unit checks of every certificate rule on synthetic
schedules, the pipeline equivalence sweep (every epoch of every
configuration must certify), and the independence pin — the certifier
must not import any of the concurrency-control modules it checks.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

from repro.analysis.certify import (
    CERT_RULES,
    MAX_FINDINGS,
    CertFinding,
    certify_epoch,
)
from repro.core.export import parse_epoch_artifact
from repro.errors import CertificationError
from repro.net import Cluster, ClusterConfig, NodeSpec
from repro.node.pipeline import PipelineConfig
from repro.workload import SmallBankConfig


def units(reads=(), writes=(), deltas=None):
    return {"reads": list(reads), "writes": list(writes), "deltas": deltas or {}}


class TestCertifyEpochUnits:
    def test_valid_epoch_certified(self):
        rwsets = {
            1: units(reads=["x"]),
            2: units(writes=["x"]),
        }
        cert = certify_epoch(rwsets, [(1, (1,)), (2, (2,))])
        assert cert.ok
        assert cert.committed == 2
        assert cert.witness == (1, 2)
        assert cert.conflict_edges == 1
        assert "CERTIFIED" in cert.summary()

    def test_witness_digest_is_stable(self):
        cert = certify_epoch({1: units(writes=["x"])}, [(1, (1,))])
        again = certify_epoch({1: units(writes=["x"])}, [(1, (1,))])
        assert cert.witness_digest == again.witness_digest
        assert len(cert.witness_digest) == 64

    def test_missing_rwset_cert101(self):
        cert = certify_epoch({}, [(1, (7,))])
        assert not cert.ok
        assert "CERT101" in cert.finding_counts

    def test_duplicate_commit_cert102(self):
        cert = certify_epoch({1: units(writes=["x"])}, [(1, (1,)), (2, (1,))])
        assert cert.finding_counts == {"CERT102": 1}

    def test_committed_and_aborted_cert103(self):
        class Sched:
            groups = [(1, (1,))]
            aborted = (1,)

        cert = certify_epoch({1: units(writes=["x"])}, Sched())
        assert "CERT103" in cert.finding_counts

    def test_nonincreasing_sequences_cert104(self):
        cert = certify_epoch(
            {1: units(writes=["x"]), 2: units(writes=["y"])},
            [(2, (1,)), (2, (2,))],
        )
        assert "CERT104" in cert.finding_counts

    def test_reader_after_writer_cert111(self):
        rwsets = {1: units(reads=["x"]), 2: units(writes=["x"])}
        cert = certify_epoch(rwsets, [(1, (2,)), (2, (1,))])
        assert "CERT111" in cert.finding_counts

    def test_reader_sharing_writer_group_cert111(self):
        rwsets = {1: units(reads=["x"]), 2: units(writes=["x"])}
        cert = certify_epoch(rwsets, [(1, (1, 2))])
        assert "CERT111" in cert.finding_counts

    def test_cogroup_writes_cert112(self):
        rwsets = {1: units(writes=["x"]), 2: units(writes=["x"])}
        cert = certify_epoch(rwsets, [(1, (1, 2))])
        assert "CERT112" in cert.finding_counts

    def test_reader_after_delta_cert113(self):
        rwsets = {1: units(reads=["x"]), 2: units(deltas={"x": 5})}
        cert = certify_epoch(rwsets, [(1, (2,)), (2, (1,))])
        assert "CERT113" in cert.finding_counts

    def test_write_sharing_delta_group_cert114(self):
        rwsets = {1: units(writes=["x"]), 2: units(deltas={"x": 5})}
        cert = certify_epoch(rwsets, [(1, (1, 2))])
        assert "CERT114" in cert.finding_counts

    def test_cogroup_deltas_allowed(self):
        rwsets = {1: units(deltas={"x": 5}), 2: units(deltas={"x": -3})}
        cert = certify_epoch(rwsets, [(1, (1, 2))])
        assert cert.ok
        assert cert.delta_folds == 1

    def test_delta_overlapping_own_reads_cert115(self):
        rwsets = {1: units(reads=["x"], deltas={"x": 1})}
        cert = certify_epoch(rwsets, [(1, (1,))])
        assert "CERT115" in cert.finding_counts

    def test_non_integer_delta_cert116(self):
        rwsets = {
            1: units(deltas={"x": "5"}),
            2: units(deltas={"x": 3}),
        }
        cert = certify_epoch(rwsets, [(1, (1, 2))])
        assert "CERT116" in cert.finding_counts

    def test_unknown_abort_reason_cert120(self):
        class Sched:
            groups = []
            aborted = (9,)

        cert = certify_epoch(
            {9: units(writes=["x"])}, Sched(), abort_reasons={9: "cosmic_rays"}
        )
        assert "CERT120" in cert.finding_counts

    def test_committed_with_abort_reason_cert120(self):
        cert = certify_epoch(
            {1: units(writes=["x"])},
            [(1, (1,))],
            abort_reasons={1: "scheme_conflict"},
        )
        assert "CERT120" in cert.finding_counts

    def test_guard_abort_reclassified_as_delta_overflow(self):
        rwsets = {1: units(deltas={"x": 1}), 2: units(writes=["y"])}
        cert = certify_epoch(rwsets, [(1, (1, 2))], guard_aborted=(1,))
        assert cert.ok
        assert cert.committed == 1
        assert cert.aborted == 1

    def test_guard_abort_with_wrong_reason_cert120(self):
        rwsets = {1: units(deltas={"x": 1})}
        cert = certify_epoch(
            rwsets,
            [(1, (1,))],
            guard_aborted=(1,),
            abort_reasons={1: "scheme_conflict"},
        )
        assert "CERT120" in cert.finding_counts

    def test_unaccounted_admitted_cert121(self):
        cert = certify_epoch(
            {1: units(writes=["x"]), 2: units(writes=["y"])}, [(1, (1,))]
        )
        assert "CERT121" in cert.finding_counts

    def test_reason_count_mismatch_cert121(self):
        cert = certify_epoch(
            {1: units(writes=["x"])},
            [(1, (1,))],
            reason_counts={"scheme_conflict": 3},
        )
        assert "CERT121" in cert.finding_counts

    def test_finding_cap_keeps_exact_counts(self):
        rwsets = {i: units(writes=["hot"]) for i in range(MAX_FINDINGS + 40)}
        cert = certify_epoch(rwsets, [(1, tuple(rwsets))])
        assert len(cert.findings) == MAX_FINDINGS
        assert cert.finding_counts["CERT112"] == MAX_FINDINGS + 39

    def test_rule_catalog_covers_emitted_codes(self):
        assert set(CERT_RULES) == {
            "CERT101",
            "CERT102",
            "CERT103",
            "CERT104",
            "CERT111",
            "CERT112",
            "CERT113",
            "CERT114",
            "CERT115",
            "CERT116",
            "CERT120",
            "CERT121",
        }

    def test_finding_render_and_json(self):
        finding = CertFinding("CERT111", "boom", (1, 2), "x")
        assert finding.render() == "CERT111 @x: boom"
        payload = finding.to_json()
        assert payload["severity"] == "error"
        assert payload["txids"] == [1, 2]

    def test_certificate_json_shape(self):
        cert = certify_epoch({1: units(writes=["x"])}, [(1, (1,))])
        payload = cert.to_json()
        assert payload["report"] == "schedule-certificate"
        assert payload["ok"] is True
        assert payload["witness"] == [1]
        assert payload["witness_digest"] == cert.witness_digest


SWEEP = [
    # (skew, omega, delta_cc, streaming)
    (0.0, 2, False, False),
    (0.99, 4, False, False),
    (0.8, 4, True, False),
    (0.8, 4, False, False),
    (0.8, 4, True, True),
    (0.99, 4, True, True),
    (0.0, 4, False, True),
    (0.5, 2, True, False),
]


class TestPipelineCertification:
    @pytest.mark.parametrize("skew,omega,delta,streaming", SWEEP)
    def test_every_epoch_certifies(self, skew, omega, delta, streaming):
        spec = NodeSpec(
            chain_count=omega,
            workload=SmallBankConfig(account_count=150, skew=skew, seed=7),
            pipeline=PipelineConfig(delta_cc=delta, streaming=streaming, certify=True),
        )
        with Cluster(spec, ClusterConfig(block_size=25)) as cluster:
            run = cluster.run_epochs(2)
            artifacts = list(cluster.node.pipeline.artifacts)
        assert len(run.outcomes) == 2
        for outcome in run.outcomes:
            cert = outcome.report.certificate
            assert cert is not None
            assert cert.ok, cert.summary()
            assert cert.committed == outcome.report.committed
            assert cert.aborted == outcome.report.aborted
        assert len(artifacts) == 2

    def test_artifact_roundtrip_matches_live_certificate(self, tmp_path):
        spec = NodeSpec(
            chain_count=4,
            workload=SmallBankConfig(account_count=150, skew=0.9, seed=3),
            pipeline=PipelineConfig(delta_cc=True, certify=True),
        )
        with Cluster(spec, ClusterConfig(block_size=30)) as cluster:
            run = cluster.run_epochs(2)
            artifacts = list(cluster.node.pipeline.artifacts)
        for payload, outcome in zip(artifacts, run.outcomes):
            path = tmp_path / f"epoch-{payload['epoch']}.artifact.json"
            path.write_text(json.dumps(payload))
            artifact = parse_epoch_artifact(json.loads(path.read_text()))
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
            live = outcome.report.certificate
            assert cert.ok
            assert cert.witness_digest == live.witness_digest
            assert cert.conflict_edges == live.conflict_edges

    def test_parse_rejects_foreign_payload(self):
        with pytest.raises(ValueError):
            parse_epoch_artifact({"artifact": "something-else"})

    def test_certification_error_is_scheduling_error(self):
        from repro.errors import SchedulingError

        assert issubclass(CertificationError, SchedulingError)

    def test_certify_off_attaches_nothing(self):
        spec = NodeSpec(chain_count=2, workload=SmallBankConfig(account_count=100, seed=1))
        with Cluster(spec, ClusterConfig(block_size=20)) as cluster:
            run = cluster.run_epochs(1)
            assert cluster.node.pipeline.artifacts == []
        assert run.outcomes[0].report.certificate is None

    def test_config_flag_default_off(self):
        assert PipelineConfig().certify is False


class TestCertifierIndependence:
    """DESIGN invariant 12: the certifier shares no code with the CC path."""

    BANNED_PREFIXES = (
        "repro.core",
        "repro.node",
        "repro.baselines",
        "repro.txn",
        "repro.dag",
    )

    def certify_imports(self):
        import repro.analysis.certify as mod

        tree = ast.parse(Path(mod.__file__).read_text())
        imported: list[str] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.extend(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.append(node.module or "")
        return imported

    def test_certify_never_imports_cc_modules(self):
        for name in self.certify_imports():
            assert not any(
                name == prefix or name.startswith(prefix + ".")
                for prefix in self.BANNED_PREFIXES
            ), f"certify.py imports {name}, breaking certifier independence"

    def test_certify_repro_imports_are_taxonomy_only(self):
        repro_imports = [
            name for name in self.certify_imports() if name.startswith("repro")
        ]
        assert repro_imports == ["repro.obs.taxonomy"]
