"""SVM bytecode → Python: straight-line segment translation.

A *segment* is the run of instructions from an entry pc to the next
control transfer: ``JUMP``, a taken ``JUMPI``, ``STOP`` / ``RETURN`` /
``REVERT``, an unknown opcode, a truncated immediate, the end of the
code, or ``MAX_SEGMENT_STEPS`` instructions.  Along it every stack, gas
and step effect is static relative to the entry, so a segment becomes
one generated Python function: the operand stack is a compile-time
*virtual stack* of locals, literals and ``stack[-k]`` references
(written back to the real list only where a jump leaves), immediates
are constants, constant jump targets are validated here, ``SLOAD`` /
``SSTORE`` call the bound storage methods and key renderer, and every
per-instruction check (stack underflow / overflow, ``DUP`` / ``SWAP``
reach, ``ARG`` range, gas, step limit) collapses into one *entry
precondition*.

When the precondition fails the segment returns ``None`` before any
effect and the driver runs the same emitter's **checked** variant: the
same code with every check inline, in the order and with the messages of
the reference interpreter (``tests/reference.py``).  That pair keeps
receipts identical on every byte string, malformed ones included.

Segments compile on first entry to their pc, so a computed jump to any
instruction boundary needs no control-flow graph and no verifier
verdict.  Compiled code lives in a bounded per-process cache keyed by
the code bytes, never in :class:`~repro.vm.native.ContractRegistry`.
The source is assembled from integers, this module's templates and
``repr`` of message strings — no text from the bytecode gets in.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Optional, Tuple

from repro import errors
from repro.errors import ExecutionError, InvalidJump, InvalidOpcode, TruncatedBytecode
from repro.vm.decoder import BytecodeLayout, Instruction, decode, truncation_message
from repro.vm.opcodes import WORD_MASK, Op

if TYPE_CHECKING:
    from repro.vm.machine import ExecutionContext

MAX_STACK_DEPTH = 1_024
MAX_STEPS = 1_000_000
MAX_SEGMENT_STEPS = 256
"""Longer straight-line runs are cut into several segments, which bounds
what one entry pc can cost to compile (and keep) by a constant."""

HALT = -1  # the "next pc" of a segment that finished the execution

Logs = list[tuple[int, int]]
Outcome = Tuple[int, int, int, Optional[int]]
Segment = Callable[["ExecutionContext", list[int], int, int, Logs], Optional[Outcome]]
"""``segment(context, stack, gas, steps, logs)`` returns ``(next pc or
HALT, gas used, steps taken, return value)`` — or ``None`` from a fast
segment whose entry precondition failed (nothing has happened then)."""

_COMPILE_CACHE_SIZE = 512

_M = str(WORD_MASK)
_BINARY = {
    Op.ADD: "({a} + {b}) & " + _M,
    Op.SUB: "({a} - {b}) & " + _M,
    Op.MUL: "({a} * {b}) & " + _M,
    Op.DIV: "{a} // {b} if {b} else 0",
    Op.MOD: "{a} % {b} if {b} else 0",
    Op.LT: "1 if {a} < {b} else 0",
    Op.GT: "1 if {a} > {b} else 0",
    Op.EQ: "1 if {a} == {b} else 0",
    Op.AND: "{a} & {b}",
    Op.OR: "{a} | {b}",
}
_UNARY = {Op.ISZERO: "1 if {a} == 0 else 0", Op.NOT: "{a} ^ " + _M}

# Locals a segment may bind on entry, in emission order.
_PROLOGUE = {
    "depth": "len(stack)",
    "limit": "context.gas_limit",
    "args": "context.args",
    "load": "context.storage.load",
    "store": "context.storage.store",
    "render": "context.key_renderer",
}

_STEP_LIMIT = ExecutionError("step limit exceeded (infinite loop?)")


def jump_target(target: int, layout: BytecodeLayout, pc: int) -> int:
    """``target`` if the jump at ``pc`` may land there, else ``InvalidJump``."""
    size = len(layout.code)
    if target >= size:
        raise InvalidJump(f"jump to {target} beyond code size {size} (pc {pc})")
    if target not in layout.boundaries:
        raise InvalidJump(
            f"jump to {target} lands inside an instruction immediate (pc {pc})"
        )
    return target


def _raise(error: ExecutionError) -> str:
    return f"raise errors.{type(error).__name__}({str(error)!r})"


class _Emitter:
    """Translates one segment into the source of its fast or checked function."""

    def __init__(self, layout: BytecodeLayout, checked: bool) -> None:
        self.layout = layout
        self.checked = checked
        self.body: list[str] = []
        self.uses: set[str] = {"limit"}
        # Virtual operand stack, bottom first; its lowest ``below``
        # entries stand for real-stack items ``stack[-below:]``.
        self.stack: list[str] = []
        self.below = 0
        self.temps = 0
        # Static effects relative to the entry state.
        self.gas = 0
        self.steps = 0
        self.need = 0
        self.growth = 0
        self.max_arg = -1

    def emit(self, line: str, indent: int = 1) -> None:
        self.body.append("    " * indent + line)

    def bind(self, expression: str) -> None:
        """Push ``expression`` as a fresh local."""
        name = f"t{self.temps}"
        self.temps += 1
        self.emit(f"{name} = {expression}")
        self.stack.append(name)

    def require(self, count: int, error: ExecutionError) -> None:
        """The instruction reaches ``count`` deep: absorb real-stack items."""
        short = count - len(self.stack)
        if short <= 0:
            return
        deep = self.below + short
        self.need = max(self.need, deep)
        self.uses.add("depth")
        if self.checked:
            self.emit(f"if depth < {deep}: {_raise(error)}")
        self.stack[:0] = [f"stack[-{k}]" for k in range(deep, self.below, -1)]
        self.below = deep

    def grown(self, pc: int) -> None:
        """An instruction pushed: account for (or check) overflow."""
        offset = len(self.stack) - self.below
        if offset <= self.growth:
            return
        self.growth = offset
        self.uses.add("depth")
        if self.checked:
            error = ExecutionError(f"stack overflow at pc {pc}")
            self.emit(f"if depth > {MAX_STACK_DEPTH - offset}: {_raise(error)}")

    def totals(self) -> str:
        return f"gas + {self.gas}, steps + {self.steps}"

    def leave(self, target: str, pc: int, indent: int) -> None:
        """Jump out of the segment: validate, write the stack back, return."""
        if target.isdigit():
            try:
                jump_target(int(target), self.layout, pc)
            except InvalidJump as error:
                self.emit(_raise(error), indent)
                return
        else:
            self.emit(f"target = jump_target({target}, layout, {pc})", indent)
            target = "target"
        tail = "(" + "".join(f"{item}, " for item in self.stack) + ")"
        if self.below:
            self.emit(f"stack[-{self.below}:] = {tail}", indent)
        elif self.stack:
            self.emit(f"stack.extend({tail})", indent)
        self.emit(f"return {target}, {self.totals()}, None", indent)

    def translate(self, pc: int) -> str:
        """Source of the segment entered at boundary ``pc``."""
        size = len(self.layout.code)
        while pc < size:
            if self.steps == MAX_SEGMENT_STEPS:
                self.leave(str(pc), pc, indent=1)
                break
            instruction = self.layout.instruction_at(pc)
            assert instruction is not None, "segments start on instruction boundaries"
            if not self.instruction(instruction, size):
                break
            pc += instruction.size
        else:
            self.emit(f"return {HALT}, {self.totals()}, None")
        return self.source()

    def instruction(self, instruction: Instruction, size: int) -> bool:
        """Emit one instruction; ``False`` when it ends the segment."""
        pc, info = instruction.pc, instruction.info
        self.steps += 1
        if self.checked:
            self.emit(f"if steps > {MAX_STEPS - self.steps}: {_raise(_STEP_LIMIT)}")
        if info is None:
            error: ExecutionError = InvalidOpcode(
                f"unknown opcode 0x{instruction.opcode:02x} at pc {pc}"
            )
            self.emit(_raise(error))
            return False
        if instruction.truncated:
            self.emit(_raise(TruncatedBytecode(truncation_message(instruction, size))))
            return False
        op, operand = info.op, instruction.immediate
        self.gas += info.gas
        if self.checked:
            self.emit(
                f"if gas + {self.gas} > limit: "
                f"raise errors.OutOfGas(f'gas limit {{limit}} exceeded at pc {pc}')"
            )
        self.require(
            info.stack_in, ExecutionError(f"stack underflow at pc {pc} ({op.name})")
        )
        stack = self.stack
        if op is Op.STOP or op is Op.RETURN:
            value = stack.pop() if op is Op.RETURN else None
            self.emit(f"return {HALT}, {self.totals()}, {value}")
            return False
        if op is Op.REVERT:
            self.emit(f"raise errors.VMRevert(gas + {self.gas})")
            return False
        if op is Op.JUMP:
            self.leave(stack.pop(), pc, indent=1)
            return False
        if op is Op.JUMPI:
            condition, target = stack.pop(), stack.pop()
            self.emit(f"if {condition}:")
            self.leave(target, pc, indent=2)
        elif op is Op.PUSH:
            stack.append(str(operand))
        elif op is Op.POP:
            stack.pop()
        elif op is Op.DUP or op is Op.SWAP:
            assert operand is not None
            error = ExecutionError(f"{op.name} {operand} beyond stack at pc {pc}")
            if operand < 1:
                self.emit(_raise(error))
                return False
            if op is Op.DUP:
                self.require(operand, error)
                stack.append(stack[-operand])
            else:
                self.require(operand + 1, error)
                stack[-1], stack[-operand - 1] = stack[-operand - 1], stack[-1]
        elif op is Op.ARG:
            assert operand is not None
            self.max_arg = max(self.max_arg, operand)
            self.uses.add("args")
            if self.checked:
                error = ExecutionError(f"ARG {operand} out of range at pc {pc}")
                self.emit(f"if len(args) <= {operand}: {_raise(error)}")
            self.bind(f"args[{operand}] & {_M}")
        elif op is Op.CALLER:
            self.bind(f"context.caller & {_M}")
        elif op in _BINARY:
            b, a = stack.pop(), stack.pop()
            self.bind(_BINARY[op].format(a=a, b=b))
        elif op in _UNARY:
            self.bind(_UNARY[op].format(a=stack.pop()))
        elif op is Op.SLOAD:
            self.uses.update(("load", "render"))
            self.bind(f"load(render({stack.pop()})) & {_M}")
        elif op is Op.SSTORE:
            self.uses.update(("store", "render"))
            value, key = stack.pop(), stack.pop()
            self.emit(f"store(render({key}), {value})")
        elif op is Op.LOG:
            value, topic = stack.pop(), stack.pop()
            self.emit(f"logs.append(({topic}, {value}))")
        else:  # pragma: no cover - table and emitter are in sync
            raise InvalidOpcode(f"unhandled opcode {op.name}")
        self.grown(pc)
        return True

    def source(self) -> str:
        lines = ["def segment(context, stack, gas, steps, logs):"]
        lines += [f"    {n} = {v}" for n, v in _PROLOGUE.items() if n in self.uses]
        if not self.checked:
            failed = [f"gas + {self.gas} > limit", f"steps > {MAX_STEPS - self.steps}"]
            if self.need:
                failed.append(f"depth < {self.need}")
            if self.growth:
                failed.append(f"depth > {MAX_STACK_DEPTH - self.growth}")
            if self.max_arg >= 0:
                failed.append(f"len(args) <= {self.max_arg}")
            lines.append(f"    if {' or '.join(failed)}: return None")
        return "\n".join(lines + self.body) + "\n"


class CompiledCode:
    """One bytecode unit and the segments compiled from it so far."""

    def __init__(self, code: bytes) -> None:
        self.layout = decode(code)
        self._segments: tuple[dict[int, Segment], dict[int, Segment]] = ({}, {})

    def segment(self, pc: int, checked: bool) -> Segment:
        """The fast or checked function of the segment entered at ``pc``."""
        cache = self._segments[checked]
        found = cache.get(pc)
        if found is None:
            source = _Emitter(self.layout, checked).translate(pc)
            scope = {"errors": errors, "jump_target": jump_target, "layout": self.layout}
            exec(compile(source, f"<svm segment {pc}>", "exec"), scope)
            found = cache[pc] = scope["segment"]
        return found

    def run(self, context: "ExecutionContext") -> tuple[int | None, int, Logs]:
        """Execute from pc 0; returns ``(return value, gas used, logs)``.

        Raises what the reference interpreter raises: ``VMRevert`` (gas
        used as its argument) or an ``ExecutionError`` subclass.
        """
        stack: list[int] = []
        logs: Logs = []
        pc = gas = steps = 0
        value: int | None = None
        while pc != HALT:
            outcome = self.segment(pc, False)(context, stack, gas, steps, logs)
            if outcome is None:
                outcome = self.segment(pc, True)(context, stack, gas, steps, logs)
                assert outcome is not None, "checked segments never decline"
            pc, gas, steps, value = outcome
        return value, gas, logs


@lru_cache(maxsize=_COMPILE_CACHE_SIZE)
def compile_code(code: bytes) -> CompiledCode:
    """The (lazily filled) compiled form of ``code``, cached per bytes."""
    return CompiledCode(code)
