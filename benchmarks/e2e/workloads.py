"""The benchmark's fixed shape and its four workloads (plain data, no imports
from the program — :mod:`seams` turns a :class:`Workload` into a node).

Every workload replays pre-mined epochs of the paper's shape — ω = 12 chains
× 200 transactions — through one ``FullNode`` in a closed loop.  The names
are a contract: later issues cite them.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

OMEGA = 12
BLOCK_SIZE = 200
POW_BITS = 4
DEFAULT_SEED = 20220710

REPEATS = 5
"""Fresh-process replays per end-to-end measurement (never reduced)."""
TRACED_REPEATS = 3
"""Fresh-process replays of the traced pass."""
UNTRACED_REFERENCE_REPEATS = 2
"""Untraced replays a ``--trace 1`` run makes to price the tracing itself
(a full run reuses its ``REPEATS`` end-to-end replays instead)."""
TRACED_EPOCHS = 12
CERTIFY_EPOCHS = 8

NOMINAL_EPOCH_SECONDS = 0.3
"""What one epoch costs, to the nearest tenth, across the four workloads on
the 2-core reference host; only used to turn ``--seconds`` into epochs."""
MIN_EPOCHS = 4
SMOKE_EPOCHS = 4
SMOKE_REPEATS = 2
SMOKE_ACCOUNTS = 20_000


def epochs_for(seconds: float) -> int:
    """Epochs per replay so ``REPEATS`` replays time about ``seconds``.

    A function of ``--seconds`` alone — never of how fast the host is — so
    the same arguments always replay the same transactions and every count
    repeats exactly.  ``--seconds 60`` gives the 40 epochs the benchmark was
    designed at; the committed ``run_seconds`` is what fits the run cap.
    """
    return max(MIN_EPOCHS, round(seconds / (REPEATS * NOMINAL_EPOCH_SECONDS)))


@dataclass(frozen=True)
class Workload:
    """One replay configuration.

    ``kind`` is ``"smallbank"`` (contract calls, executed natively or as SVM
    bytecode) or ``"synthetic"`` (precomputed read/write sets, ``registry=None``
    so the executor is a passthrough).  ``store`` is ``"lsm"`` or ``"mem"``.
    """

    name: str
    kind: str
    accounts: int
    skew: float
    use_vm: bool
    store: str
    streaming: bool
    majority: str
    why: str

    def describe(self) -> dict:
        return asdict(self)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="headline-svm-lsm",
            kind="smallbank",
            accounts=10_000,
            skew=0.6,
            use_vm=True,
            store="lsm",
            streaming=False,
            majority="executor.execute_ms",
            why="Nothing-modelled node: SVM bytecode, Nezha CC, flat state + "
            "trie seal, LSM store. The VM does the most work of any workload "
            "(~40% of the epoch, level with the seal); state fits the memtable.",
        ),
        Workload(
            name="largestate-lsm",
            kind="smallbank",
            accounts=100_000,
            skew=0.2,
            use_vm=False,
            store="lsm",
            streaming=False,
            majority="committer.commit_ms",
            why="Near-uniform writes over 200k leaves, far beyond the 4 MiB "
            "memtable: trie seal + LSM puts own the epoch, execution and "
            "aborts are small.",
        ),
        Workload(
            name="hotkey-cc",
            kind="synthetic",
            accounts=10_000,
            skew=0.9,
            use_vm=False,
            store="mem",
            streaming=False,
            majority="core.schedule_ms",
            why="Paper's high-contention regime (Fig. 9/11): 3 reads + 2 "
            "writes at skew 0.9, ~70% aborts; CC owns the epoch, the executor "
            "is a passthrough and the seal touches few keys.",
        ),
        Workload(
            name="stream-native",
            kind="smallbank",
            accounts=10_000,
            skew=0.6,
            use_vm=False,
            store="mem",
            streaming=True,
            majority="engine",
            why="Same layers used differently: streaming engine (speculate + "
            "reconcile, incremental ACG, commit on the back stage) fed with "
            "submit_epoch; shows gains that cost the other path.",
        ),
    )
}

SYNTHETIC_READS = 3
SYNTHETIC_WRITES = 2
