"""Static classification of commutative delta writes.

A store is a *delta site* when the written value is provably
``old ± k`` where ``old`` is the value loaded from the *same* key and
``k`` is a pure input expression — the operation commutes with every
other delta on that key, so the scheduler can let hot-key increments
share a sequence number instead of aborting them as write-write
conflicts.

Eligibility is deliberately strict (every rejection is merely a missed
optimisation, while a wrong acceptance corrupts state):

* the store's value term must match ``ADD(Load(K), E)``, ``ADD(E,
  Load(K))`` (sign +1) or ``SUB(Load(K), E)`` (sign -1), with the store
  key syntactically equal to ``K`` and both ``K`` and ``E`` *clean* —
  containing no ``Load`` and no ⊤;
* no branch condition, other store key, or other store value may
  contain a ``Load`` of a syntactically equal key — control flow and
  other effects must not depend on the old value;
* any ⊤ reaching a store key/value, load key, or branch condition kills
  the whole function: a widened term can hide a ``Load`` dependency;
* a store or load pc that accumulated more than one term across
  worklist revisits kills the whole function — the fixpoint coarsened
  past the point where "the" key of that site is meaningful.

Syntactic key inequality does **not** imply runtime inequality
(``sendPayment(src, dst)`` aliases its two checking keys when ``src ==
dst``), so classification alone never authorises a promotion:
:func:`resolve_sites` concretizes every key under the actual call
inputs and drops any site whose address collides with another store or
load — and the logger's :meth:`~repro.vm.logger.LoggedStorage.
promote_deltas` re-checks the claimed delta against the dynamically
observed values on top of that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.txn.rwset import Address
from repro.vm.decoder import decode
from repro.vm.machine import KeyRenderer
from repro.vm.opcodes import WORD_MASK, Op

from repro.analysis.static.absdomain import (
    AbsVal,
    BinExpr,
    Load,
    NotExpr,
    Top,
    evaluate,
)
from repro.analysis.static.absint import interpret

_WORD_MOD = WORD_MASK + 1


@dataclass(frozen=True)
class DeltaSite:
    """One statically proven commutative store.

    ``pc`` is the SSTORE, ``load_pc`` the SLOAD whose value flows into
    it; ``key`` and ``delta`` are input-only symbolic terms and ``sign``
    applies to the concretized delta (+1 for ``ADD``, -1 for ``SUB``).
    """

    pc: int
    load_pc: int
    key: AbsVal
    delta: AbsVal
    sign: int


@dataclass(frozen=True)
class DeltaClassification:
    """Delta sites of one function plus the alias-check side tables.

    ``store_keys``/``load_keys`` list *every* store and load of the
    function as ``(pc, key term)`` pairs; :func:`resolve_sites`
    concretizes them per call to rule out runtime aliasing that the
    syntactic rules cannot see.
    """

    sites: tuple[DeltaSite, ...] = ()
    store_keys: tuple[tuple[int, AbsVal], ...] = ()
    load_keys: tuple[tuple[int, AbsVal], ...] = ()


EMPTY_CLASSIFICATION = DeltaClassification()


def _contains_top(term: AbsVal) -> bool:
    if isinstance(term, Top):
        return True
    if isinstance(term, BinExpr):
        return _contains_top(term.left) or _contains_top(term.right)
    if isinstance(term, NotExpr):
        return _contains_top(term.operand)
    if isinstance(term, Load):
        return _contains_top(term.key)
    return False


def _contains_load(term: AbsVal, key: AbsVal | None = None) -> bool:
    """Whether ``term`` contains a Load (of ``key``, when given)."""
    if isinstance(term, Load):
        if key is None or term.key == key:
            return True
        return _contains_load(term.key, key)
    if isinstance(term, BinExpr):
        return _contains_load(term.left, key) or _contains_load(term.right, key)
    if isinstance(term, NotExpr):
        return _contains_load(term.operand, key)
    return False


def _match_site(pc: int, key: AbsVal, value: AbsVal) -> DeltaSite | None:
    """Match ``value`` against ``old ± k`` for the store at ``pc``."""
    if not isinstance(value, BinExpr):
        return None
    if value.op is Op.ADD:
        candidates = ((value.left, value.right), (value.right, value.left))
        sign = 1
    elif value.op is Op.SUB:
        candidates = ((value.left, value.right),)
        sign = -1
    else:
        return None
    for load_term, delta in candidates:
        if not isinstance(load_term, Load):
            continue
        if load_term.key != key:
            continue
        if _contains_load(key) or _contains_load(delta):
            continue
        return DeltaSite(
            pc=pc, load_pc=load_term.pc, key=key, delta=delta, sign=sign
        )
    return None


def classify_bytecode(
    code: bytes, *, nargs: int | None = None
) -> DeltaClassification:
    """Classify one function's bytecode; empty on any imprecision.

    Runs the abstract interpreter in load-tracking mode and applies the
    eligibility rules above.  Functions that fail verification, widen a
    relevant term to ⊤, or coarsen a store/load site across worklist
    revisits classify as having no delta sites — never an error.
    """
    result = interpret(decode(code), nargs=nargs, track_loads=True)
    if not result.ok:
        return EMPTY_CLASSIFICATION

    stores: dict[int, tuple[AbsVal, AbsVal]] = {}
    for pc, pairs in result.store_sites.items():
        if len(pairs) != 1:
            return EMPTY_CLASSIFICATION
        (key, value) = next(iter(pairs))
        if _contains_top(key) or _contains_top(value):
            return EMPTY_CLASSIFICATION
        stores[pc] = (key, value)
    loads: dict[int, AbsVal] = {}
    for pc, keys in result.load_sites.items():
        if len(keys) != 1:
            return EMPTY_CLASSIFICATION
        (load_key,) = keys
        if _contains_top(load_key):
            return EMPTY_CLASSIFICATION
        loads[pc] = load_key
    for condition in result.branch_conditions:
        if _contains_top(condition):
            return EMPTY_CLASSIFICATION

    sites: list[DeltaSite] = []
    for pc in sorted(stores):
        key, value = stores[pc]
        site = _match_site(pc, key, value)
        if site is None:
            continue
        if any(
            _contains_load(condition, site.key)
            for condition in result.branch_conditions
        ):
            continue
        hazard = False
        for other_pc in sorted(stores):
            if other_pc == pc:
                continue
            other_key, other_value = stores[other_pc]
            if (
                other_key == site.key
                or _contains_load(other_key, site.key)
                or _contains_load(other_value, site.key)
            ):
                hazard = True
                break
        if not hazard:
            sites.append(site)
    return DeltaClassification(
        sites=tuple(sites),
        store_keys=tuple((pc, stores[pc][0]) for pc in sorted(stores)),
        load_keys=tuple((pc, loads[pc]) for pc in sorted(loads)),
    )


def resolve_sites(
    classification: DeltaClassification,
    args: Iterable[int],
    caller: int,
    key_renderer: KeyRenderer,
) -> tuple[tuple[Address, int], ...]:
    """Concretize a call's delta sites into ``(address, delta mod 2**64)``.

    Every store and load key is evaluated under the actual inputs; a
    site is dropped when its own key or delta fails to concretize, when
    its delta is zero, or when any *other* store or load of the function
    lands on the same rendered address (or cannot be shown not to) —
    the runtime aliasing the syntactic rules cannot exclude.
    """
    if not classification.sites:
        return ()
    arg_tuple = tuple(args)
    store_addrs: dict[int, Address | None] = {}
    for pc, term in classification.store_keys:
        concrete = evaluate(term, arg_tuple, caller)
        store_addrs[pc] = None if concrete is None else key_renderer(concrete)
    load_addrs: dict[int, Address | None] = {}
    for pc, term in classification.load_keys:
        concrete = evaluate(term, arg_tuple, caller)
        load_addrs[pc] = None if concrete is None else key_renderer(concrete)

    resolved: list[tuple[Address, int]] = []
    for site in classification.sites:
        key_value = evaluate(site.key, arg_tuple, caller)
        delta_value = evaluate(site.delta, arg_tuple, caller)
        if key_value is None or delta_value is None:
            continue
        address = key_renderer(key_value)
        delta_mod = (site.sign * delta_value) % _WORD_MOD
        if delta_mod == 0:
            continue
        hazard = False
        for pc, other in store_addrs.items():
            if pc != site.pc and (other is None or other == address):
                hazard = True
                break
        if not hazard:
            for pc, other in load_addrs.items():
                if pc != site.load_pc and (other is None or other == address):
                    hazard = True
                    break
        if not hazard:
            resolved.append((address, delta_mod))
    return tuple(resolved)
