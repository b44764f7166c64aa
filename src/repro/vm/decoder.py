"""Bytecode decoding shared by the segment compiler and the static verifier.

One linear scan turns raw bytes into a :class:`BytecodeLayout`: the
decoded instruction stream, the set of valid *instruction boundaries*
(the only legal jump targets), and structural defects (immediates that
run past the end of the code).  The compiler consults the layout to
reject jumps that land inside an immediate and to report truncated
instructions with a structured error instead of ``struct.error``; the
static verifier starts from the same layout so both sides report
identical diagnostics for identical malformations.

Unknown opcode bytes decode as one-byte pseudo-instructions: they are
boundaries (mirroring the machine, which only faults on an unknown
byte when the program counter actually reaches it), and executing or
analyzing them raises/reports ``InvalidOpcode``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache

from repro.vm.opcodes import OpInfo, op_info

_PUSH_IMM = struct.Struct("<Q")

_DECODE_CACHE_SIZE = 512


@dataclass(frozen=True)
class Instruction:
    """One decoded instruction."""

    pc: int
    opcode: int
    info: OpInfo | None
    """Opcode metadata, or ``None`` for an unknown opcode byte."""
    immediate: int | None
    """Decoded immediate operand, or ``None`` when absent or truncated."""
    truncated: bool = False
    """Whether the immediate runs past the end of the code."""

    @property
    def size(self) -> int:
        """Encoded size in bytes (truncated instructions claim full size)."""
        if self.info is None:
            return 1
        return 1 + self.info.immediate_size

    @property
    def mnemonic(self) -> str:
        """Display name (hex byte for unknown opcodes)."""
        if self.info is None:
            return f"0x{self.opcode:02x}"
        return self.info.op.name


@dataclass(frozen=True)
class BytecodeLayout:
    """Instruction-level structure of one bytecode unit."""

    code: bytes
    instructions: tuple[Instruction, ...]
    boundaries: frozenset[int]
    """Program counters that start an instruction — the legal jump targets."""
    truncated_pc: int | None
    """pc of the instruction whose immediate overruns the code, if any."""

    def instruction_at(self, pc: int) -> Instruction | None:
        """The instruction starting at ``pc``, or ``None`` off-boundary."""
        index = self._index_of(pc)
        if index is None:
            return None
        return self.instructions[index]

    def _index_of(self, pc: int) -> int | None:
        # Instructions are sorted by pc; binary search keeps lookups
        # cheap for the verifier's worklist.
        lo, hi = 0, len(self.instructions) - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            start = self.instructions[mid].pc
            if start == pc:
                return mid
            if start < pc:
                lo = mid + 1
            else:
                hi = mid - 1
        return None


def truncation_message(instruction: Instruction, code_size: int) -> str:
    """The canonical diagnostic both runtime and verifier emit."""
    assert instruction.info is not None
    need = instruction.info.immediate_size
    have = max(0, code_size - instruction.pc - 1)
    return (
        f"truncated immediate for {instruction.mnemonic} at pc "
        f"{instruction.pc}: need {need} bytes, have {have}"
    )


@lru_cache(maxsize=_DECODE_CACHE_SIZE)
def decode(code: bytes) -> BytecodeLayout:
    """Decode ``code`` into its instruction layout (cached per bytes).

    Decoding never raises: unknown opcodes and truncated immediates are
    recorded in the layout and surfaced by whoever executes or verifies
    the affected instruction.
    """
    instructions: list[Instruction] = []
    boundaries: set[int] = set()
    truncated_pc: int | None = None
    size = len(code)
    pc = 0
    while pc < size:
        boundaries.add(pc)
        opcode = code[pc]
        info = op_info(opcode)
        if info is None:
            instructions.append(Instruction(pc, opcode, None, None))
            pc += 1
            continue
        end = pc + 1 + info.immediate_size
        if end > size:
            instructions.append(Instruction(pc, opcode, info, None, truncated=True))
            truncated_pc = pc
            break
        immediate: int | None = None
        if info.immediate_size == 8:
            (immediate,) = _PUSH_IMM.unpack_from(code, pc + 1)
        elif info.immediate_size == 1:
            immediate = code[pc + 1]
        instructions.append(Instruction(pc, opcode, info, immediate))
        pc = end
    return BytecodeLayout(
        code=code,
        instructions=tuple(instructions),
        boundaries=frozenset(boundaries),
        truncated_pc=truncated_pc,
    )
