"""The string-keyed reference CC pipeline, chained for equivalence tests.

``NezhaScheduler`` only runs the dense pipeline; the paper-shaped stage
functions (``build_acg`` → ``divide_ranks`` → ``sort_transactions`` →
``validate_sort``) are the oracle every dense output is compared with.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Sequence

from repro.core import (
    NezhaConfig,
    build_acg,
    divide_ranks,
    schedule_from_sequences,
    sort_transactions,
    validate_sort,
)
from repro.txn import Transaction


def schedule_reference(
    transactions: Sequence[Transaction], config: NezhaConfig | None = None
) -> SimpleNamespace:
    """Schedule a batch through the reference stages.

    Returns the fields of a ``NezhaResult`` that the equivalence sweeps
    compare, assembled exactly as the scheduler assembles its own.
    """
    config = config or NezhaConfig()
    txn_by_id = {t.txid: t for t in transactions}
    acg = build_acg(transactions)
    rank_order = divide_ranks(acg, policy=config.rank_policy)
    state = sort_transactions(
        acg,
        rank_order,
        txn_by_id,
        enable_reorder=config.enable_reorder,
        initial_seq=config.initial_seq,
    )
    if config.enable_validation:
        validate_sort(
            acg, state, transactions=txn_by_id, enable_reorder=config.enable_reorder
        )
    delta_commuted = 0
    for rw in acg.rw_lists.values():
        committed = sum(1 for t in rw.deltas if state.is_live(t))
        if committed >= 2:
            delta_commuted += committed
    return SimpleNamespace(
        schedule=schedule_from_sequences(
            sequences=state.sequences,
            aborted=state.aborted,
            reordered=state.reordered,
        ),
        acg=acg,
        rank_order=rank_order,
        abort_reasons=dict(sorted(state.reasons.items())),
        revived=len(state.revived),
        delta_commuted=delta_commuted,
        abort_edges={txid: [edge] for txid, edge in sorted(state.edges.items())},
        revived_txids=tuple(sorted(state.revived)),
    )
