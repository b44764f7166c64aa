"""The SVM: execution context, receipts and the machine's entry point.

Executes assembled bytecode against a :class:`~repro.vm.logger.LoggedStorage`
accessor.  Storage opcodes address 64-bit integer keys; a per-contract
*key renderer* maps them to the string state addresses the rest of the
system uses (SmallBank renders ``sav:...``/``chk:...``), keeping VM
execution and analytic workloads conflict-identical.

There is no interpreter loop: :mod:`repro.vm.compiler` translates each
bytecode into one Python function per straight-line segment, and
:meth:`SVM.execute` turns what they return or raise into a :class:`Receipt`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ExecutionError, VMRevert
from repro.txn.rwset import Address, RWSet
from repro.vm.compiler import compile_code
from repro.vm.logger import LoggedStorage

DEFAULT_GAS_LIMIT = 1_000_000

KeyRenderer = Callable[[int], Address]


def default_key_renderer(key: int) -> Address:
    """Render a storage key when the contract supplies no mapping."""
    return f"slot:{key:016x}"


@dataclass
class ExecutionContext:
    """Everything one transaction execution can observe."""

    storage: LoggedStorage
    args: tuple[int, ...] = ()
    caller: int = 0
    gas_limit: int = DEFAULT_GAS_LIMIT
    key_renderer: KeyRenderer = default_key_renderer
    delta_sites: tuple[tuple[Address, int], ...] = ()
    """Statically classified commutative-write sites for this call:
    ``(address, delta mod 2**64)`` pairs the logger may promote to delta
    units after a successful run (each is re-checked dynamically)."""


@dataclass
class Receipt:
    """Result of one bytecode execution."""

    success: bool
    return_value: int | None
    gas_used: int
    rwset: RWSet = field(default_factory=RWSet)
    error: str | None = None
    logs: tuple[tuple[int, int], ...] = ()
    """Events emitted via LOG: ``(topic, value)`` pairs, in emission order.

    Reverted or failed executions discard their logs, as the EVM does.
    """


class SVM:
    """The stack machine (one instance is reusable and stateless)."""

    def execute(self, code: bytes, context: ExecutionContext) -> Receipt:
        """Run ``code`` to completion; revert errors produce a failed receipt.

        Structural errors (bad opcode, stack underflow, out of gas, jump
        out of range) also fail the receipt rather than raising, because a
        blockchain node must never crash on untrusted bytecode.
        """
        try:
            value, gas_used, logs = compile_code(code).run(context)
        except VMRevert as exc:
            context.storage.discard()
            return Receipt(
                success=False,
                return_value=None,
                gas_used=exc.args[0] if exc.args else 0,
                rwset=context.storage.rwset(),
                error="reverted",
            )
        except ExecutionError as exc:
            context.storage.discard()
            return Receipt(
                success=False,
                return_value=None,
                gas_used=context.gas_limit,
                rwset=context.storage.rwset(),
                error=str(exc),
            )
        if context.delta_sites:
            context.storage.promote_deltas(context.delta_sites)
        return Receipt(
            success=True,
            return_value=value,
            gas_used=gas_used,
            rwset=context.storage.rwset(),
            logs=tuple(logs),
        )
