"""Reference implementations the shipped code is compared with.

* ``schedule_reference`` — the string-keyed CC pipeline.
  ``NezhaScheduler`` only runs the dense pipeline; the paper-shaped stage
  functions (``build_acg`` → ``divide_ranks`` → ``sort_transactions`` →
  ``validate_sort``) are the oracle every dense output is compared with.
* ``ReferenceSVM`` — the per-instruction SVM interpreter.  ``repro.vm``
  only runs compiled segments; this loop is the oracle for receipts.

Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import struct
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
from repro.errors import (
    ExecutionError,
    InvalidJump,
    InvalidOpcode,
    OutOfGas,
    TruncatedBytecode,
    VMRevert,
)
from repro.txn import Transaction
from repro.vm import ExecutionContext, Op, Receipt, WORD_MASK, decode, op_info
from repro.vm.compiler import MAX_STACK_DEPTH, MAX_STEPS
from repro.vm.decoder import BytecodeLayout, truncation_message

_PUSH_IMM = struct.Struct("<Q")


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


class ReferenceSVM:
    """The if/elif interpreter ``repro.vm`` shipped before the segment compiler.

    Moved here verbatim (``SVM`` → ``ReferenceSVM``); it defines what a
    ``Receipt`` must be for every byte string, and the differential fuzz
    holds the compiled ``SVM`` to it.
    """

    def execute(self, code: bytes, context: ExecutionContext) -> Receipt:
        """Run ``code`` to completion; revert errors produce a failed receipt.

        Structural errors (bad opcode, stack underflow, out of gas, jump
        out of range) also fail the receipt rather than raising, because a
        blockchain node must never crash on untrusted bytecode.
        """
        try:
            value, gas_used, logs = self._run(code, context)
        except VMRevert as exc:
            context.storage.discard()
            return Receipt(
                success=False,
                return_value=None,
                gas_used=exc.args[0] if exc.args else 0,
                rwset=context.storage.rwset(),
                error="reverted",
            )
        except (InvalidOpcode, OutOfGas, ExecutionError) as exc:
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

    def _run(
        self, code: bytes, context: ExecutionContext
    ) -> tuple[int | None, int, list[tuple[int, int]]]:
        stack: list[int] = []
        logs: list[tuple[int, int]] = []
        pc = 0
        gas_used = 0
        steps = 0
        size = len(code)
        # One cached structural scan per bytecode unit: yields the set of
        # valid instruction boundaries (the only legal jump targets) and
        # the location of any truncated trailing immediate.
        layout = decode(code)
        truncated_pc = layout.truncated_pc
        while pc < size:
            steps += 1
            if steps > MAX_STEPS:
                raise ExecutionError("step limit exceeded (infinite loop?)")
            opcode = code[pc]
            info = op_info(opcode)
            if info is None:
                raise InvalidOpcode(f"unknown opcode 0x{opcode:02x} at pc {pc}")
            if pc == truncated_pc:
                instruction = layout.instruction_at(pc)
                assert instruction is not None
                raise TruncatedBytecode(truncation_message(instruction, size))
            gas_used += info.gas
            if gas_used > context.gas_limit:
                raise OutOfGas(f"gas limit {context.gas_limit} exceeded at pc {pc}")
            if len(stack) < info.stack_in:
                raise ExecutionError(f"stack underflow at pc {pc} ({info.op.name})")
            op = info.op
            next_pc = pc + 1 + info.immediate_size

            if op is Op.STOP:
                return None, gas_used, logs
            if op is Op.PUSH:
                (value,) = _PUSH_IMM.unpack_from(code, pc + 1)
                stack.append(value)
            elif op is Op.POP:
                stack.pop()
            elif op is Op.DUP:
                depth = code[pc + 1]
                if depth < 1 or depth > len(stack):
                    raise ExecutionError(f"DUP {depth} beyond stack at pc {pc}")
                stack.append(stack[-depth])
            elif op is Op.SWAP:
                depth = code[pc + 1]
                if depth < 1 or depth + 1 > len(stack):
                    raise ExecutionError(f"SWAP {depth} beyond stack at pc {pc}")
                stack[-1], stack[-depth - 1] = stack[-depth - 1], stack[-1]
            elif op is Op.ARG:
                index = code[pc + 1]
                if index >= len(context.args):
                    raise ExecutionError(f"ARG {index} out of range at pc {pc}")
                stack.append(context.args[index] & WORD_MASK)
            elif op is Op.CALLER:
                stack.append(context.caller & WORD_MASK)
            elif op is Op.ADD:
                b, a = stack.pop(), stack.pop()
                stack.append((a + b) & WORD_MASK)
            elif op is Op.SUB:
                b, a = stack.pop(), stack.pop()
                stack.append((a - b) & WORD_MASK)
            elif op is Op.MUL:
                b, a = stack.pop(), stack.pop()
                stack.append((a * b) & WORD_MASK)
            elif op is Op.DIV:
                b, a = stack.pop(), stack.pop()
                stack.append(0 if b == 0 else a // b)
            elif op is Op.MOD:
                b, a = stack.pop(), stack.pop()
                stack.append(0 if b == 0 else a % b)
            elif op is Op.LT:
                b, a = stack.pop(), stack.pop()
                stack.append(1 if a < b else 0)
            elif op is Op.GT:
                b, a = stack.pop(), stack.pop()
                stack.append(1 if a > b else 0)
            elif op is Op.EQ:
                b, a = stack.pop(), stack.pop()
                stack.append(1 if a == b else 0)
            elif op is Op.ISZERO:
                stack.append(1 if stack.pop() == 0 else 0)
            elif op is Op.AND:
                b, a = stack.pop(), stack.pop()
                stack.append(a & b)
            elif op is Op.OR:
                b, a = stack.pop(), stack.pop()
                stack.append(a | b)
            elif op is Op.NOT:
                stack.append(stack.pop() ^ WORD_MASK)
            elif op is Op.JUMP:
                next_pc = self._jump_target(stack.pop(), layout, pc)
            elif op is Op.JUMPI:
                condition, target = stack.pop(), stack.pop()
                if condition:
                    next_pc = self._jump_target(target, layout, pc)
            elif op is Op.SLOAD:
                key = stack.pop()
                address = context.key_renderer(key)
                stack.append(context.storage.load(address) & WORD_MASK)
            elif op is Op.SSTORE:
                value, key = stack.pop(), stack.pop()
                address = context.key_renderer(key)
                context.storage.store(address, value)
            elif op is Op.LOG:
                value, topic = stack.pop(), stack.pop()
                logs.append((topic, value))
            elif op is Op.RETURN:
                return stack.pop(), gas_used, logs
            elif op is Op.REVERT:
                raise VMRevert(gas_used)
            else:  # pragma: no cover - table and dispatch are in sync
                raise InvalidOpcode(f"unhandled opcode {op.name}")

            if len(stack) > MAX_STACK_DEPTH:
                raise ExecutionError(f"stack overflow at pc {pc}")
            pc = next_pc
        return None, gas_used, logs

    @staticmethod
    def _jump_target(target: int, layout: BytecodeLayout, pc: int) -> int:
        size = len(layout.code)
        if target >= size:
            raise InvalidJump(f"jump to {target} beyond code size {size} (pc {pc})")
        if target not in layout.boundaries:
            raise InvalidJump(
                f"jump to {target} lands inside an instruction immediate (pc {pc})"
            )
        return target
