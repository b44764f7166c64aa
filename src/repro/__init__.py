"""Nezha reproduction: concurrency control for DAG-based blockchains.

Reproduces *Nezha: Exploiting Concurrency for Transaction Processing in
DAG-based Blockchains* (ICDCS 2022): the address-based conflict graph and
hierarchical sorting scheme, its CG/OCC/Serial baselines, and the full
substrate stack (OHIE-style DAG chain, SVM execution engine, MPT state,
LSM storage, simulated cluster).

Quickstart
----------
>>> from repro import NezhaScheduler, make_transaction
>>> txns = [
...     make_transaction(1, reads=["A2"], writes=["A1"]),
...     make_transaction(2, reads=["A3"], writes=["A2"]),
... ]
>>> result = NezhaScheduler().schedule(txns)
>>> result.schedule.committed
(1, 2)
"""

from repro.core import (
    NezhaConfig,
    NezhaResult,
    NezhaScheduler,
    Schedule,
)
from repro.txn import RWSet, Transaction, make_transaction

__version__ = "1.0.0"

__all__ = [
    "NezhaConfig",
    "NezhaResult",
    "NezhaScheduler",
    "RWSet",
    "Schedule",
    "Transaction",
    "__version__",
    "make_transaction",
]
