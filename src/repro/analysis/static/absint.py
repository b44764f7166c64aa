"""Worklist abstract interpreter over SVM bytecode.

Explores every path reachable from pc 0 with an abstract stack of
:mod:`~repro.analysis.static.absdomain` terms, proving:

* **stack safety** — no underflow, no ``DUP``/``SWAP`` beyond the stack,
  no overflow past the machine's ``MAX_STACK_DEPTH``, and a single
  consistent stack depth at every join point (the classic JVM/Wasm
  verification discipline);
* **jump safety** — every ``JUMP``/``JUMPI`` target is a statically
  constant pc that lands on an instruction boundary inside the code
  (mid-immediate and out-of-range targets are rejected with the same
  wording the machine uses at runtime);
* **static RW keys** — every ``SLOAD``/``SSTORE`` key operand is
  captured as a symbolic term, giving a per-method over-approximate
  read/write key set.

Branch conditions that fold to constants prune the untaken edge, so the
analysis never reports defects on provably infeasible paths; symbolic
conditions explore both edges, which is what makes the result an
over-approximation of any concrete run.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.vm.decoder import BytecodeLayout, truncation_message
from repro.vm.compiler import MAX_STACK_DEPTH
from repro.vm.opcodes import Op

from repro.analysis.static.absdomain import (
    TOP,
    AbsVal,
    Arg,
    Caller,
    Const,
    Load,
    Top,
    apply_binary,
    apply_iszero,
    apply_not,
    join,
)

# Finding catalog (documented in docs/static-analysis.md).
UNKNOWN_OPCODE = "SV101"
JUMP_OUT_OF_RANGE = "SV102"
JUMP_MID_IMMEDIATE = "SV103"
JUMP_NOT_CONSTANT = "SV104"
TRUNCATED_IMMEDIATE = "SV105"
STACK_UNDERFLOW = "SV106"
STACK_OVERFLOW = "SV107"
INCONSISTENT_DEPTH = "SV108"
ARG_OUT_OF_RANGE = "SV109"
UNREACHABLE_CODE = "SV110"
IMPRECISE_KEY = "SV111"

_BINARY_OPS = frozenset(
    {Op.ADD, Op.SUB, Op.MUL, Op.DIV, Op.MOD, Op.LT, Op.GT, Op.EQ, Op.AND, Op.OR}
)


@dataclass(frozen=True)
class Finding:
    """One verifier diagnostic."""

    code: str
    severity: str
    """``"error"`` (verdict-affecting) or ``"warning"`` (informational)."""
    message: str
    pc: int | None = None
    line: int | None = None
    """Assembly source line, when debug info was supplied."""

    def to_json(self) -> dict[str, object]:
        return {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
            "pc": self.pc,
            "line": self.line,
        }


@dataclass
class AbstractResult:
    """Everything one abstract-interpretation pass learned."""

    entry_stacks: dict[int, tuple[AbsVal, ...]] = field(default_factory=dict)
    visited: set[int] = field(default_factory=set)
    edges: dict[int, tuple[int, ...]] = field(default_factory=dict)
    """pc -> ordered successor pcs (jump targets before fallthrough)."""
    reads: list[AbsVal] = field(default_factory=list)
    writes: list[AbsVal] = field(default_factory=list)
    findings: list[Finding] = field(default_factory=list)
    max_stack_depth: int = 0
    terminators: set[int] = field(default_factory=set)
    """pcs of RETURN/REVERT/STOP instructions (and implicit end-of-code)."""
    store_sites: dict[int, set[tuple[AbsVal, AbsVal]]] = field(default_factory=dict)
    """SSTORE pc -> every (key, value) term pair seen there (load tracking)."""
    load_sites: dict[int, set[AbsVal]] = field(default_factory=dict)
    """SLOAD pc -> every key term seen there (load tracking)."""
    branch_conditions: set[AbsVal] = field(default_factory=set)
    """Every non-constant JUMPI condition term (load tracking)."""

    @property
    def ok(self) -> bool:
        """Whether no error-severity finding was recorded."""
        return all(finding.severity != "error" for finding in self.findings)


class _Interpreter:
    def __init__(
        self,
        layout: BytecodeLayout,
        nargs: int | None,
        debug: dict[int, int] | None,
        track_loads: bool = False,
    ) -> None:
        self.layout = layout
        self.size = len(layout.code)
        self.nargs = nargs
        self.track_loads = track_loads
        self.debug = debug or {}
        self.result = AbstractResult()
        self._seen_findings: set[tuple[str, int | None, str]] = set()
        self._read_keys: set[AbsVal] = set()
        self._write_keys: set[AbsVal] = set()
        self._worklist: deque[int] = deque()

    # ------------------------------------------------------------ plumbing

    def _report(
        self, code: str, severity: str, message: str, pc: int | None
    ) -> None:
        key = (code, pc, message)
        if key in self._seen_findings:
            return
        self._seen_findings.add(key)
        line = self.debug.get(pc) if pc is not None else None
        self.result.findings.append(Finding(code, severity, message, pc, line))

    def _propagate(self, pc: int, stack: tuple[AbsVal, ...], origin: int) -> None:
        if pc >= self.size:
            # Falling off the end of the code is an implicit STOP.
            self.result.terminators.add(origin)
            return
        known = self.result.entry_stacks.get(pc)
        if known is None:
            self.result.entry_stacks[pc] = stack
            self._worklist.append(pc)
            return
        if len(known) != len(stack):
            self._report(
                INCONSISTENT_DEPTH,
                "error",
                f"inconsistent stack depth at join pc {pc}: "
                f"{len(known)} vs {len(stack)}",
                pc,
            )
            return
        merged = tuple(join(a, b) for a, b in zip(known, stack))
        if merged != known:
            self.result.entry_stacks[pc] = merged
            self._worklist.append(pc)

    def _record_key(self, kind: str, key: AbsVal, pc: int) -> None:
        target = self._read_keys if kind == "read" else self._write_keys
        if key in target:
            return
        target.add(key)
        if isinstance(key, Top):
            self._report(
                IMPRECISE_KEY,
                "warning",
                f"storage {kind} key at pc {pc} is not statically known; "
                f"the static {kind} set widens to the full key space",
                pc,
            )

    # ------------------------------------------------------------ main loop

    def run(self) -> AbstractResult:
        if self.size:
            self.result.entry_stacks[0] = ()
            self._worklist.append(0)
        while self._worklist:
            pc = self._worklist.popleft()
            self._step(pc)
        self.result.reads = sorted(self._read_keys, key=repr)
        self.result.writes = sorted(self._write_keys, key=repr)
        return self.result

    def _step(self, pc: int) -> None:
        self.result.visited.add(pc)
        instruction = self.layout.instruction_at(pc)
        assert instruction is not None, f"worklist pc {pc} off boundary"
        info = instruction.info
        if info is None:
            self._report(
                UNKNOWN_OPCODE,
                "error",
                f"unknown opcode 0x{instruction.opcode:02x} at pc {pc}",
                pc,
            )
            return
        if instruction.truncated:
            self._report(
                TRUNCATED_IMMEDIATE,
                "error",
                truncation_message(instruction, self.size),
                pc,
            )
            return
        stack = list(self.result.entry_stacks[pc])
        depth = len(stack)
        op = info.op
        immediate = instruction.immediate

        if not self._check_stack(op, immediate, depth, pc, info.stack_in):
            return

        next_pc = pc + instruction.size
        successors: list[int] = []

        if op in (Op.STOP, Op.REVERT):
            self.result.terminators.add(pc)
        elif op is Op.RETURN:
            stack.pop()
            self.result.terminators.add(pc)
        elif op is Op.PUSH:
            assert immediate is not None
            stack.append(Const(immediate))
        elif op is Op.POP:
            stack.pop()
        elif op is Op.DUP:
            assert immediate is not None
            stack.append(stack[-immediate])
        elif op is Op.SWAP:
            assert immediate is not None
            stack[-1], stack[-immediate - 1] = stack[-immediate - 1], stack[-1]
        elif op is Op.ARG:
            assert immediate is not None
            stack.append(Arg(immediate))
        elif op is Op.CALLER:
            stack.append(Caller())
        elif op in _BINARY_OPS:
            b, a = stack.pop(), stack.pop()
            stack.append(apply_binary(op, a, b))
        elif op is Op.ISZERO:
            if self.track_loads:
                # EQ-with-zero has identical concrete semantics but keeps
                # symbolic (Load-carrying) operands alive instead of
                # widening them to ⊤ — the classifier must see every
                # branch that inspects a stored value.
                stack.append(apply_binary(Op.EQ, stack.pop(), Const(0)))
            else:
                stack.append(apply_iszero(stack.pop()))
        elif op is Op.NOT:
            stack.append(apply_not(stack.pop()))
        elif op is Op.JUMP:
            target = stack.pop()
            resolved = self._resolve_jump(target, pc)
            if resolved is not None:
                successors.append(resolved)
        elif op is Op.JUMPI:
            condition, target = stack.pop(), stack.pop()
            take_jump = True
            take_fallthrough = True
            if isinstance(condition, Const):
                take_jump = condition.value != 0
                take_fallthrough = not take_jump
            elif self.track_loads:
                self.result.branch_conditions.add(condition)
            if take_jump:
                resolved = self._resolve_jump(target, pc)
                if resolved is not None:
                    successors.append(resolved)
            if take_fallthrough:
                successors.append(next_pc)
        elif op is Op.SLOAD:
            key = stack.pop()
            self._record_key("read", key, pc)
            if self.track_loads:
                self.result.load_sites.setdefault(pc, set()).add(key)
                stack.append(Load(key, pc))
            else:
                stack.append(TOP)
        elif op is Op.SSTORE:
            value, key = stack.pop(), stack.pop()
            self._record_key("write", key, pc)
            if self.track_loads:
                self.result.store_sites.setdefault(pc, set()).add((key, value))
        elif op is Op.LOG:
            stack.pop()
            stack.pop()
        else:  # pragma: no cover - opcode table and dispatch are in sync
            raise AssertionError(f"unhandled opcode {op.name}")

        if len(stack) > MAX_STACK_DEPTH:
            self._report(
                STACK_OVERFLOW, "error", f"stack overflow at pc {pc}", pc
            )
            return
        self.result.max_stack_depth = max(self.result.max_stack_depth, len(stack))

        if op not in (Op.STOP, Op.RETURN, Op.REVERT, Op.JUMP, Op.JUMPI):
            successors.append(next_pc)
        if successors:
            self.result.edges[pc] = tuple(successors)
        out = tuple(stack)
        for successor in successors:
            self._propagate(successor, out, pc)

    def _check_stack(
        self, op: Op, immediate: int | None, depth: int, pc: int, stack_in: int
    ) -> bool:
        if op is Op.DUP:
            assert immediate is not None
            if immediate < 1 or immediate > depth:
                self._report(
                    STACK_UNDERFLOW,
                    "error",
                    f"DUP {immediate} beyond stack at pc {pc}",
                    pc,
                )
                return False
            return True
        if op is Op.SWAP:
            assert immediate is not None
            if immediate < 1 or immediate + 1 > depth:
                self._report(
                    STACK_UNDERFLOW,
                    "error",
                    f"SWAP {immediate} beyond stack at pc {pc}",
                    pc,
                )
                return False
            return True
        if op is Op.ARG and self.nargs is not None:
            assert immediate is not None
            if immediate >= self.nargs:
                self._report(
                    ARG_OUT_OF_RANGE,
                    "error",
                    f"ARG {immediate} out of range at pc {pc}",
                    pc,
                )
                return False
        if depth < stack_in:
            self._report(
                STACK_UNDERFLOW,
                "error",
                f"stack underflow at pc {pc} ({op.name})",
                pc,
            )
            return False
        return True

    def _resolve_jump(self, target: AbsVal, pc: int) -> int | None:
        if not isinstance(target, Const):
            self._report(
                JUMP_NOT_CONSTANT,
                "error",
                f"jump target at pc {pc} is not statically constant",
                pc,
            )
            return None
        value = target.value
        if value >= self.size:
            self._report(
                JUMP_OUT_OF_RANGE,
                "error",
                f"jump to {value} beyond code size {self.size} (pc {pc})",
                pc,
            )
            return None
        if value not in self.layout.boundaries:
            self._report(
                JUMP_MID_IMMEDIATE,
                "error",
                f"jump to {value} lands inside an instruction immediate (pc {pc})",
                pc,
            )
            return None
        return value


def interpret(
    layout: BytecodeLayout,
    *,
    nargs: int | None = None,
    debug: dict[int, int] | None = None,
    track_loads: bool = False,
) -> AbstractResult:
    """Run the abstract interpreter over a decoded bytecode layout.

    ``nargs`` (when known) bounds ``ARG`` indices statically, matching
    the interpreter's dynamic range check; ``debug`` is an optional
    pc -> source-line map from :func:`repro.vm.assembler.assemble_with_debug`.
    ``track_loads`` switches ``SLOAD`` results from ⊤ to symbolic
    :class:`~repro.analysis.static.absdomain.Load` terms and records
    store sites, load sites, and branch conditions for the commutative
    delta classifier; the default mode is byte-identical to before the
    flag existed.
    """
    return _Interpreter(layout, nargs, debug, track_loads=track_loads).run()
