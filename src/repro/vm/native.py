"""Native (Python-level) contracts.

Benchmarks need tens of thousands of speculative executions, where
interpreting bytecode would dominate wall-clock time without changing the
conflict structure.  A *native contract* implements the same functions as
its bytecode twin directly in Python against the same
:class:`~repro.vm.logger.LoggedStorage` accessor, producing identical
read/write sets and write values (integration tests assert this for
SmallBank).  The node executor picks native when available.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.errors import ExecutionError, VMRevert
from repro.vm.logger import LoggedStorage
from repro.vm.machine import Receipt

NativeFn = Callable[..., "int | None"]
"""Native function: ``fn(storage, args, caller=0) -> int | None``.

``caller`` is the numeric id of the transaction sender, mirroring the
SVM's ``CALLER`` opcode; caller-insensitive functions simply ignore it.
"""


@dataclass
class NativeContract:
    """A named bundle of native functions."""

    name: str
    functions: Mapping[str, NativeFn] = field(default_factory=dict)
    arities: Mapping[str, int] = field(default_factory=dict)
    """Declared argument count per function.  A call with fewer reverts
    and extra arguments are dropped, as the bytecode twin's ``ARG`` range
    check has it; a function with no entry receives ``args`` untouched."""

    def call(
        self,
        function: str,
        storage: LoggedStorage,
        args: tuple[int, ...],
        caller: int = 0,
    ) -> Receipt:
        """Execute one function; revert produces a failed receipt."""
        try:
            fn = self.functions[function]
        except KeyError:
            raise ExecutionError(
                f"contract {self.name!r} has no function {function!r}"
            ) from None
        arity = self.arities.get(function, len(args))
        try:
            if len(args) < arity:
                raise VMRevert(f"{function} takes {arity} arguments, got {len(args)}")
            value = fn(storage, args[:arity], caller)
        except VMRevert as exc:
            storage.discard()
            return Receipt(
                success=False,
                return_value=None,
                gas_used=0,
                rwset=storage.rwset(),
                error=str(exc) or "reverted",
            )
        return Receipt(
            success=True,
            return_value=value,
            gas_used=0,
            rwset=storage.rwset(),
        )


class ContractRegistry:
    """Name -> deployed contract lookup used by the execution phase.

    Each entry holds a native implementation and optionally bytecode plus
    a key renderer for VM execution.
    """

    def __init__(self) -> None:
        self._native: dict[str, NativeContract] = {}
        self._bytecode: dict[str, dict[str, bytes]] = {}
        self._renderers: dict[str, Callable[[int], str]] = {}

    def register_native(self, contract: NativeContract) -> None:
        """Deploy a native contract."""
        self._native[contract.name] = contract

    def register_bytecode(
        self,
        name: str,
        functions: Mapping[str, bytes],
        key_renderer: Callable[[int], str],
    ) -> None:
        """Deploy assembled bytecode for a contract's functions."""
        self._bytecode[name] = dict(functions)
        self._renderers[name] = key_renderer

    def native(self, name: str) -> NativeContract | None:
        """The native implementation, if deployed."""
        return self._native.get(name)

    def bytecode(self, name: str, function: str) -> bytes | None:
        """Assembled code of one function, if deployed."""
        return self._bytecode.get(name, {}).get(function)

    def key_renderer(self, name: str) -> Callable[[int], str] | None:
        """The contract's storage-key renderer, if deployed."""
        return self._renderers.get(name)

    def contracts(self) -> list[str]:
        """All deployed contract names."""
        return sorted(set(self._native) | set(self._bytecode))

