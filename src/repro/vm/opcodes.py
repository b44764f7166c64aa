"""SVM instruction set.

A compact stack machine standing in for the EVM (see DESIGN.md for the
substitution argument).  Words are unsigned 64-bit integers; arithmetic
wraps modulo 2**64.  Instructions are one opcode byte, optionally
followed by an immediate: 8 bytes for ``PUSH``, 1 byte for ``ARG``,
``DUP``, and ``SWAP``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

WORD_MASK = (1 << 64) - 1
"""All SVM words are reduced modulo 2**64."""


class Op(enum.IntEnum):
    """Opcode byte values."""

    STOP = 0x00
    PUSH = 0x01
    POP = 0x02
    DUP = 0x03
    SWAP = 0x04
    ARG = 0x05
    CALLER = 0x06

    ADD = 0x10
    SUB = 0x11
    MUL = 0x12
    DIV = 0x13
    MOD = 0x14

    LT = 0x20
    GT = 0x21
    EQ = 0x22
    ISZERO = 0x23
    AND = 0x24
    OR = 0x25
    NOT = 0x26

    JUMP = 0x30
    JUMPI = 0x31

    SLOAD = 0x40
    SSTORE = 0x41

    LOG = 0x42

    RETURN = 0x50
    REVERT = 0x51


@dataclass(frozen=True)
class OpInfo:
    """Static properties of one opcode."""

    op: Op
    immediate_size: int
    stack_in: int
    stack_out: int
    gas: int


_TABLE: dict[Op, OpInfo] = {}


def _register(op: Op, immediate_size: int, stack_in: int, stack_out: int, gas: int) -> None:
    _TABLE[op] = OpInfo(op, immediate_size, stack_in, stack_out, gas)


_register(Op.STOP, 0, 0, 0, 0)
_register(Op.PUSH, 8, 0, 1, 3)
_register(Op.POP, 0, 1, 0, 2)
_register(Op.DUP, 1, 0, 1, 3)  # stack_in validated dynamically by depth
_register(Op.SWAP, 1, 0, 0, 3)
_register(Op.ARG, 1, 0, 1, 3)
_register(Op.CALLER, 0, 0, 1, 2)
_register(Op.ADD, 0, 2, 1, 3)
_register(Op.SUB, 0, 2, 1, 3)
_register(Op.MUL, 0, 2, 1, 5)
_register(Op.DIV, 0, 2, 1, 5)
_register(Op.MOD, 0, 2, 1, 5)
_register(Op.LT, 0, 2, 1, 3)
_register(Op.GT, 0, 2, 1, 3)
_register(Op.EQ, 0, 2, 1, 3)
_register(Op.ISZERO, 0, 1, 1, 3)
_register(Op.AND, 0, 2, 1, 3)
_register(Op.OR, 0, 2, 1, 3)
_register(Op.NOT, 0, 1, 1, 3)
_register(Op.JUMP, 0, 1, 0, 8)
_register(Op.JUMPI, 0, 2, 0, 10)
_register(Op.SLOAD, 0, 1, 1, 200)
_register(Op.SSTORE, 0, 2, 0, 5_000)
_register(Op.LOG, 0, 2, 0, 375)
_register(Op.RETURN, 0, 1, 0, 0)
_register(Op.REVERT, 0, 0, 0, 0)


_BY_BYTE: tuple[OpInfo | None, ...] = tuple(
    map({int(op): info for op, info in _TABLE.items()}.get, range(256))
)


def op_info(op: int | Op) -> OpInfo | None:
    """Metadata for an opcode byte, or ``None`` when unknown."""
    return _BY_BYTE[op] if 0 <= op < 256 else None
