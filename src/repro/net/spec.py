"""One node spec, one way to bring a node up — fresh or restarted.

:class:`NodeSpec` holds the value objects a deployment's full nodes
share; :func:`build_node` turns it into a :class:`~repro.node.node.FullNode`.
The live objects (store, tracer, ledger) stay arguments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dag.blockstore import BlockStore
from repro.dag.chain import ParallelChains
from repro.dag.pow import PoWParams
from repro.node.node import FullNode
from repro.node.pipeline import SCHEMES, PipelineConfig
from repro.obs.ledger import FlightLedger
from repro.obs.tracer import Tracer
from repro.state.statedb import StateDB
from repro.storage.api import KVStore
from repro.vm.contracts.smallbank import default_registry
from repro.workload.smallbank import SmallBankConfig, initial_state


@dataclass(frozen=True)
class NodeSpec:
    """What a full node is: scheme, chains, genesis workload, pipeline, PoW.

    ``scheme`` is a key of :data:`repro.node.SCHEMES`.  ``workload``
    sets the genesis state and the driver's client.
    """

    scheme: str = "nezha"
    chain_count: int = 12
    workload: SmallBankConfig = field(default_factory=SmallBankConfig)
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    pow: PoWParams = field(default_factory=PoWParams)

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; one of {sorted(SCHEMES)}")


def build_node(
    spec: NodeSpec,
    *,
    store: KVStore | None = None,
    tracer: Tracer | None = None,
    ledger: FlightLedger | None = None,
) -> FullNode:
    """Bring one node of ``spec`` up.

    Without a store the node is in memory, with no block archive.  A
    given store also holds the archive: an empty one is seeded with the
    genesis, one holding an archive is reopened by :meth:`FullNode.restore`.
    """
    # Delta-CC needs the bytecode deployed even for native execution:
    # the static classifier reads it.
    pipeline = spec.pipeline
    shared = dict(
        registry=default_registry(include_bytecode=pipeline.use_vm or pipeline.delta_cc),
        config=pipeline,
        tracer=tracer,
        ledger=ledger,
    )
    scheduler = SCHEMES[spec.scheme]()
    archive = BlockStore(store) if store is not None else None
    if archive is not None and archive.epoch_blocks(0, spec.chain_count):
        return FullNode.restore(
            store, scheduler, spec.chain_count, pow_params=spec.pow, **shared
        )
    state = StateDB(store=store, tracer=tracer)
    state.seed(initial_state(spec.workload))
    return FullNode(
        chains=ParallelChains(chain_count=spec.chain_count, pow_params=spec.pow),
        state=state,
        scheduler=scheduler,
        blockstore=archive,
        **shared,
    )
