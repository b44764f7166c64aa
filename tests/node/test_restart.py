"""Kill a node anywhere inside an epoch; the restart loses no epoch.

A node over an LSM store archives each epoch's accepted blocks in one
write when it admits them, and records the sealed root after the seal.
Each test here kills the node (raises at one point of one epoch, then
closes the store) and brings it back with ``build_node`` over the same
directory.  Fed the mined epochs it has not archived, the restarted node
must reach ``test_one_path``'s golden per-epoch fingerprints and
certificate witnesses — the epoch the kill interrupted included.
"""

from __future__ import annotations

import pytest

from repro.net import build_node
from repro.storage import LSMStore
from tests.node.test_one_path import (
    CASES,
    EPOCHS,
    GOLDEN,
    _fingerprint,
    _run,
    _spec,
    _witnesses,
)


class Killed(Exception):
    """The simulated crash."""


def _dying(original, calls: list[int], epoch: int, after: bool = False):
    """Wrap ``original`` so its ``epoch``-th call (0-based) and every later
    one raise :class:`Killed` — before the call runs, or after it with
    ``after``.  ``calls`` is shared when several methods form one point."""

    def wrapper(*args, **kwargs):
        calls[0] += 1
        if calls[0] <= epoch:
            return original(*args, **kwargs)
        if after:
            original(*args, **kwargs)
        raise Killed

    return wrapper


def _arm(node, point: str, epoch: int) -> None:
    """Make the node die at ``point`` of epoch ``epoch``.

    Every hooked method runs once per epoch on both the barrier and the
    streaming path (a failed speculation falls back to the barrier, so an
    execute kill raises from the fallback's second call).
    """
    calls = [0]
    targets = {
        "admit": [(node.blockstore, "put_blocks")],
        "execute": [(node.pipeline.executor, "execute_batch")],
        "cc": [(node.scheduler, "schedule"), (node.scheduler, "schedule_dense")],
        "commit": [(node.pipeline.committer, "commit")],
        "seal": [(node.state, "commit")],
        "before-root-record": [(node.blockstore, "set_state_root")],
        "after-root-record": [(node.blockstore, "set_state_root")],
    }[point]
    for owner, name in targets:
        wrapped = _dying(
            getattr(owner, name), calls, epoch, after=point == "after-root-record"
        )
        setattr(owner, name, wrapped)


POINTS = [
    "admit",
    "execute",
    "cc",
    "commit",
    "seal",
    "before-root-record",
    "after-root-record",
]


@pytest.fixture(scope="module")
def mined():
    """Each case's three live-mined epochs (the golden run's blocks)."""
    return {case: _run(case)[2] for case in ("nezha", "nezha-streaming")}


@pytest.mark.parametrize("epoch", range(EPOCHS))
@pytest.mark.parametrize("point", POINTS)
@pytest.mark.parametrize("case", ["nezha", "nezha-streaming"])
def test_restart_reaches_golden_roots(case, point, epoch, mined, tmp_path):
    spec = _spec(*CASES[case])
    blocks = mined[case]

    store = LSMStore(tmp_path / "db")
    node = build_node(spec, store=store)
    _arm(node, point, epoch)
    with pytest.raises(Killed):
        for epoch_blocks in blocks:
            node.receive_epoch(epoch_blocks)
    lived = list(node.reports)
    assert len(lived) <= epoch + 1
    try:
        node.close()
    except Killed:
        pass
    store.close()

    store = LSMStore(tmp_path / "db")
    restarted = build_node(spec, store=store)
    with restarted:
        for epoch_blocks in blocks[restarted.next_epoch :]:
            restarted.receive_epoch(epoch_blocks)
    store.close()

    by_epoch = {report.epoch_index: report for report in lived + restarted.reports}
    assert sorted(by_epoch) == list(range(EPOCHS))
    reports = [by_epoch[index] for index in range(EPOCHS)]
    assert _fingerprint(reports) == GOLDEN[case]["epochs"]
    assert _witnesses(reports) == GOLDEN[case]["witnesses"]


def test_restart_of_a_finished_run_replays_nothing(mined, tmp_path):
    spec = _spec(*CASES["nezha"])
    store = LSMStore(tmp_path / "db")
    with build_node(spec, store=store) as node:
        for epoch_blocks in mined["nezha"]:
            node.receive_epoch(epoch_blocks)
    store.close()

    store = LSMStore(tmp_path / "db")
    restarted = build_node(spec, store=store)
    assert restarted.next_epoch == EPOCHS
    assert restarted.reports == []
    assert restarted.state_root.hex() == GOLDEN["nezha"]["epochs"][-1][0]
    store.close()
