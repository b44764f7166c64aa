"""One path an epoch takes through the node, whatever the scheme.

Every scheme routes through the same admit → execute → schedule → apply
→ finish sequence; the schemes differ only in what they *declare*.  The
golden fingerprints below were recorded at the commit *before* the four
report-building paths were merged into one (one fixed 3-epoch SmallBank
run per scheme, ledger and certifier on), so they pin that the merge
changed nothing observable: roots, counts, taxonomy, ledger timeline
and certificate witnesses are bit-identical.  They were recorded with
the SmallBank bytecode deployed for every scheme; the nodes here come
from ``build_node``, which deploys it only for the SVM or delta-CC, so
the goldens also pin that the deployment is unobservable otherwise.
"""

from __future__ import annotations

import dataclasses
import inspect

import pytest

from repro.core import NezhaScheduler
from repro.dag import EpochCoordinator, Mempool, ParallelChains, PoWParams
from repro.errors import CertificationError
from repro.net import NodeSpec, build_node
from repro.node import (
    ConcurrentExecutor,
    FullNode,
    PipelineConfig,
    SerialExecutorCommitter,
    TransactionPipeline,
)
from repro.obs import FlightLedger, timeline_digest, validate_ledger
from repro.state import StateDB
from repro.workload import SmallBankConfig, SmallBankWorkload

EPOCHS, CHAINS, BLOCK_SIZE = 3, 3, 40
POW = PoWParams(6)
WORKLOAD = SmallBankConfig(account_count=150, skew=0.6, seed=29)

# case -> (scheme, PipelineConfig flags); ``certify`` is on everywhere and
# takes effect where supported (the speculative schemes).
CASES = {
    "serial": ("serial", {}),
    "occ": ("occ", {}),
    "pcc": ("pcc", {}),
    "cg": ("cg", {}),
    "nezha": ("nezha", {}),
    "nezha-delta": ("nezha", {"delta_cc": True}),
    "nezha-streaming": ("nezha", {"streaming": True}),
}

# Per epoch: (state_root, committed, aborted, failed_simulation,
# input_transactions, commit_group_count, sorted abort_reasons).
# CG's third epoch blows its cycle budget: nothing commits, no certificate.
GOLDEN = {
    "serial": {
        "epochs": [
            ("441d3dcae8fb75bfe9efeee6c4ad55fe8a02e64d3349b49310792b801841d2f3", 117, 0, 3, 120, 117, ()),
            ("01dc90c73aa4a39f6e24595df7baaba24000a326b53e2adccfa3d52246dc03e8", 107, 0, 13, 120, 107, ()),
            ("a9c92b3c6127ad754421a5c6f70d9d6e2807cc5896e4717b3e17ec23a531c80c", 110, 0, 10, 120, 110, ()),
        ],
        "ledger": "1461b1df0eec647a97b1f02cc90c2e631721a5e49c85bcfc222ab379458cfe71",
        "witnesses": [],
    },
    "occ": {
        "epochs": [
            ("ca339430f976c9ae3df45f40ff8b432b40eb39a98cbb4af7a5607b836fcb1790", 69, 51, 0, 120, 69, (("scheme_conflict", 51),)),
            ("ec3beb2d32a29b88491227d259f36703ebabf87764f95076b34d465af7d579f1", 63, 54, 3, 120, 63, (("scheme_conflict", 54),)),
            ("6b98e80c95042db0b5615f8d1d6cd2f50ff72da86fa350d4fcb58696cc4b2fde", 64, 52, 4, 120, 64, (("scheme_conflict", 52),)),
        ],
        "ledger": "6f54755458bff539bac9b9424d7d4f80c3ff4c3e04d2d0016a8671357430248f",
        "witnesses": [
            "68547fa3372df04f318fd13f68fe4430224f7894a4b852d47ec2b5e52af512ce",
            "34753dadf7aa9103ae17f37d39db6f09fc4b9a13e6316607dd10250e1f0f18cc",
            "816b4314f32c2d12a805c10ea4070ddef6265b1b730e96d03ade5d823d3b9f50",
        ],
    },
    "pcc": {
        "epochs": [
            ("34aa2d34873093498d26e50a19755449effbc0e58f2481e2c86b0b190f4241d6", 113, 0, 7, 120, 9, ()),
            ("63153401958b641a3009870c2b9378ce72bad81dbee26a97b138e6a9b1ae017a", 108, 0, 12, 120, 8, ()),
            ("c5aeb80f8cc909dd8bd5ac89a4d17151a6d509895898027e581210cfda347fb3", 110, 0, 10, 120, 14, ()),
        ],
        "ledger": "a912b47223d12033d63285a5e73b2310c10f129c6478f55c37c4b134a59a5ff7",
        "witnesses": [],
    },
    "cg": {
        "epochs": [
            ("61351982f1363586e44082be9afb7f3e3e28492f07a9ae7cdc7604019d0e7b0a", 79, 41, 0, 120, 79, (("scheme_conflict", 41),)),
            ("69909e2613ae18b34d7fa5fa0c2d69c53ba0ddef54dbfe639a1532defa0a370b", 74, 43, 3, 120, 74, (("scheme_conflict", 43),)),
            ("69909e2613ae18b34d7fa5fa0c2d69c53ba0ddef54dbfe639a1532defa0a370b", 0, 117, 3, 120, 0, (("scheme_conflict", 117),)),
        ],
        "ledger": "91ed260e708bc3e0c40b665d4d9cb905ae19e847a9317578080b84f763f71656",
        "witnesses": [
            "69b1a53e3a56d3b9173831b7d1fb81f69f8ac77d610966f5b8c1525ae1c4f411",
            "f8b9dd78cf72e45891cba0cacea23c9fa9c754a6628ed11c2df07d7d3a2b849e",
        ],
    },
    "nezha": {
        "epochs": [
            ("e0fea11604d069fb84b89f48494b5637830a0a2453653184fe17440506ba371a", 77, 43, 0, 120, 11, (("unserializable_write", 43),)),
            ("42c059b56e316679a8496d81debb597afe6968330387e2fa9ff82c409ddf23ee", 73, 45, 2, 120, 10, (("unserializable_write", 45),)),
            ("db4aaef2c3e356b76d26f27db66b74c6605c6e931ecb77b245a3ca69909ce45c", 67, 47, 6, 120, 12, (("unserializable_write", 47),)),
        ],
        "ledger": "342ea963acbdb17fdf3b983620354c53a77f832ef4ca7cd75a69a869991c4e77",
        "witnesses": [
            "a16e8267c72fa6816aaf84997ccd434b90203b5667fcb3ae0391e3a5ad12225c",
            "43ed1ca510bc02c61759726ec8db94dbb48b2b8cb01b5c186192bfd42032f053",
            "6d1cb50a6a555c40dca80a02e708ad9feb4e8236bfcc3cab004e8991bc9dd3ea",
        ],
    },
    "nezha-delta": {
        "epochs": [
            ("2bd010fc64aae85f65601ca393b15f5a4b02aa6456e33866b3408c4312581b92", 92, 28, 0, 120, 8, (("unserializable_write", 28),)),
            ("23beb5a8bb1faf0c8caf9c843d46e89e314c9c53169411c60806e9b9f191ed25", 92, 26, 2, 120, 8, (("unserializable_write", 26),)),
            ("3a5d49aa2d6d45b483cb23d184b1503f30cde51bf4e6eca0ea25805f27be775d", 90, 25, 5, 120, 10, (("unserializable_write", 25),)),
        ],
        "ledger": "125d98fb0060f60327c01173b4d9902f543d9bfb08a9f1a8c11f524519512b25",
        "witnesses": [
            "32a044bbcb7fc58af13d2ba834a00b515881c186934366d8b0815d6e779fcaa8",
            "0a17dbb44e9dd82bbb1b8bff0e8153e1377ccb56508d17f4887345518cd825cb",
            "a6623b88a45d24929782483d6bb93658734da9d6c3a7f613d7cf7310ea18a0bc",
        ],
    },
}
# Streaming is bit-identical to the barrier run of the same scheme.
GOLDEN["nezha-streaming"] = GOLDEN["nezha"]


def _spec(scheme: str, flags: dict) -> NodeSpec:
    return NodeSpec(
        scheme=scheme,
        chain_count=CHAINS,
        workload=WORKLOAD,
        pipeline=PipelineConfig(certify=True, **flags),
        pow=POW,
    )


def _node(scheme: str, flags: dict, ledger: FlightLedger) -> FullNode:
    return build_node(_spec(scheme, flags), ledger=ledger)


def _run(case: str):
    """One live-mined 3-epoch run: blocks chain on the scheme's own roots."""
    scheme, flags = CASES[case]
    ledger = FlightLedger()
    coordinator = EpochCoordinator(
        chains=ParallelChains(chain_count=CHAINS, pow_params=POW),
        miners=["m0"],
        block_size=BLOCK_SIZE,
    )
    pool = Mempool()
    pool.submit_many(
        SmallBankWorkload(WORKLOAD).generate(EPOCHS * CHAINS * BLOCK_SIZE + 60)
    )
    mined = []
    with _node(scheme, flags, ledger) as node:
        for _ in range(EPOCHS):
            blocks = coordinator.mine_epoch(pool, state_root=node.state_root)
            mined.append(blocks)
            node.receive_epoch(blocks)
    return node.reports, ledger, mined


def _fingerprint(reports):
    return [
        (
            r.state_root.hex(),
            r.committed,
            r.aborted,
            r.failed_simulation,
            r.input_transactions,
            r.commit_group_count,
            tuple(sorted(r.abort_reasons.items())),
        )
        for r in reports
    ]


def _witnesses(reports):
    return [r.certificate.witness_digest for r in reports if r.certificate is not None]


@pytest.mark.parametrize("case", sorted(CASES))
def test_scheme_fingerprint_matches_pre_merge_golden(case, tmp_path):
    reports, ledger, mined = _run(case)
    if CASES[case][1].get("streaming"):
        # Replay the same blocks back to back, so the engine's overlap —
        # speculate, reconcile, commit on the back stage — really runs.
        ledger = FlightLedger()
        with _node(*CASES[case], ledger) as node:
            for blocks in mined:
                node.submit_epoch(blocks)
            node.drain()
            assert node.engine.stats.epochs_streamed == EPOCHS
        reports = node.reports
    golden = GOLDEN[case]
    assert _fingerprint(reports) == golden["epochs"]
    assert timeline_digest(ledger.events()) == golden["ledger"]
    assert _witnesses(reports) == golden["witnesses"]
    for report in reports:
        assert (
            report.committed + report.aborted + report.failed_simulation
            == report.input_transactions
        )
        assert sum(report.abort_reasons.values()) == report.aborted
        assert report.certificate is None or report.certificate.ok
    path = tmp_path / "ledger.jsonl"
    ledger.write_jsonl(path)
    assert validate_ledger(path) == []


class TestDeclaredCapabilities:
    def test_pipeline_config_is_the_four_fields_anything_reads(self):
        assert {f.name for f in dataclasses.fields(PipelineConfig)} == {
            "use_vm",
            "delta_cc",
            "streaming",
            "certify",
        }
        with pytest.raises(TypeError):
            PipelineConfig(workers=2)

    def test_executor_takes_no_placement_parameters(self):
        assert list(inspect.signature(ConcurrentExecutor.__init__).parameters)[1:] == [
            "registry",
            "use_vm",
            "gas_limit",
            "delta_cc",
        ]
        # Nothing below the node owns a resource to release.
        for owner in (ConcurrentExecutor, SerialExecutorCommitter, TransactionPipeline):
            assert not hasattr(owner, "close")

    def test_undeclared_scheduler_rejected_at_construction(self):
        class Undeclared:
            name = "undeclared"

            def schedule(self, transactions):
                raise AssertionError("must be rejected before its first epoch")

        with pytest.raises(TypeError, match="Scheduler protocol"):
            TransactionPipeline(state=StateDB(), scheduler=Undeclared())

    def test_unknown_execution_discipline_rejected(self):
        class Sideways(NezhaScheduler):
            execution = "sideways"

        with pytest.raises(TypeError, match="execution"):
            TransactionPipeline(state=StateDB(), scheduler=Sideways())

    @pytest.mark.parametrize("scheme", ["serial", "occ", "pcc", "cg"])
    def test_streaming_flag_keeps_undeclaring_schemes_on_the_barrier(self, scheme):
        with _node(scheme, {"streaming": True}, FlightLedger()) as node:
            assert node.engine is None


class TestCloseReraises:
    def test_close_reraises_what_the_back_stage_raised(self, monkeypatch):
        """``close()`` re-raises what the in-flight epoch raised — after
        the back-stage thread is stopped, never instead of that."""
        _, _, mined = _run("nezha")
        node = _node("nezha", {"streaming": True}, FlightLedger())
        node.submit_epoch(mined[0])
        node.drain()

        def rejected(*args, **kwargs):
            raise CertificationError("back stage rejected the epoch")

        monkeypatch.setattr(node.pipeline, "_certify_epoch", rejected)
        node.submit_epoch(mined[1])
        with pytest.raises(CertificationError):
            node.close()
        with pytest.raises(RuntimeError, match="closed"):
            node.submit_epoch(mined[2])
        node.close()  # idempotent
