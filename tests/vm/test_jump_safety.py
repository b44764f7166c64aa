"""Runtime jump and truncation safety (the verifier's dynamic twin).

Regression tests for two interpreter holes the static verifier
formalizes: jumps landing inside a ``PUSH``/``ARG``/``DUP``/``SWAP``
immediate (executing operand bytes as opcodes), and trailing
instructions whose immediate runs past the end of the code (previously
``struct.error``/``IndexError`` instead of a structured failure).
"""

from __future__ import annotations

import pytest

from repro.errors import InvalidJump, TruncatedBytecode
from repro.vm import ExecutionContext, LoggedStorage, Op, SVM, assemble, decode
from repro.vm.compiler import jump_target


def execute(code, args=(), gas_limit=100_000):
    storage = LoggedStorage(lambda _address: 0)
    context = ExecutionContext(storage=storage, args=tuple(args), gas_limit=gas_limit)
    return SVM().execute(code, context)


class TestMidImmediateJumps:
    def test_jump_into_push_immediate_rejected(self):
        # PUSH occupies pcs 0..8; pc 4 is inside its immediate.
        code = assemble("PUSH 4\nJUMP\nPUSH 1\nRETURN")
        receipt = execute(code)
        assert not receipt.success
        assert "lands inside an instruction immediate" in receipt.error

    def test_jump_into_arg_immediate_rejected(self):
        # Layout: PUSH at 0 (9 bytes), JUMP at 9, ARG at 10 with its
        # one-byte immediate at pc 11 — the jump lands on the immediate.
        code = assemble("PUSH 11\nJUMP\nARG 0\nRETURN")
        assert code[10] == int(Op.ARG)
        receipt = execute(code, args=(7,))
        assert not receipt.success
        assert "lands inside an instruction immediate" in receipt.error

    def test_jumpi_checks_taken_branch(self):
        code = assemble("PUSH 4\nPUSH 1\nJUMPI\nPUSH 1\nRETURN")
        receipt = execute(code)
        assert not receipt.success
        assert "lands inside an instruction immediate" in receipt.error

    def test_untaken_jumpi_ignores_bad_target(self):
        code = assemble("PUSH 4\nPUSH 0\nJUMPI\nPUSH 1\nRETURN")
        receipt = execute(code)
        assert receipt.success
        assert receipt.return_value == 1

    def test_jump_beyond_code_still_rejected(self):
        code = assemble("PUSH 999\nJUMP")
        receipt = execute(code)
        assert not receipt.success
        assert "beyond code size" in receipt.error

    def test_valid_boundary_jump_unaffected(self):
        source = """
        PUSH @target
        JUMP
        REVERT
        target:
        PUSH 42
        RETURN
        """
        receipt = execute(assemble(source))
        assert receipt.success
        assert receipt.return_value == 42

    def test_invalid_jump_is_execution_error_subclass(self):
        from repro.errors import ExecutionError

        assert issubclass(InvalidJump, ExecutionError)
        with pytest.raises(InvalidJump):
            jump_target(4, decode(assemble("PUSH 1\nRETURN")), pc=0)


class TestTruncatedBytecode:
    def test_truncated_push_immediate(self):
        code = assemble("PUSH 1\nRETURN")[:5]  # PUSH keeps 4 of 8 bytes
        receipt = execute(code)
        assert not receipt.success
        assert "truncated immediate for PUSH at pc 0" in receipt.error
        assert "need 8 bytes, have 4" in receipt.error

    @pytest.mark.parametrize("mnemonic", ["ARG", "DUP", "SWAP"])
    def test_truncated_one_byte_immediates(self, mnemonic):
        code = bytes([int(Op[mnemonic])])  # opcode with no immediate byte
        receipt = execute(code)
        assert not receipt.success
        assert f"truncated immediate for {mnemonic} at pc 0" in receipt.error
        assert "need 1 bytes, have 0" in receipt.error

    def test_truncated_code_after_return_is_harmless(self):
        # The truncated tail is never executed, matching the
        # interpreter's lazy treatment of unreachable junk.
        code = assemble("PUSH 1\nRETURN") + bytes([int(Op.PUSH), 0x01])
        receipt = execute(code)
        assert receipt.success
        assert receipt.return_value == 1

    def test_truncated_error_is_structured(self):
        from repro.errors import ExecutionError

        assert issubclass(TruncatedBytecode, ExecutionError)


class TestDecoderLayout:
    def test_boundaries_exclude_immediate_bytes(self):
        code = assemble("PUSH 7\nARG 0\nADD\nRETURN")
        layout = decode(code)
        # PUSH at 0 (9 bytes), ARG at 9 (2 bytes), ADD at 11, RETURN at 12.
        assert layout.boundaries == frozenset({0, 9, 11, 12})
        assert layout.truncated_pc is None

    def test_unknown_opcodes_are_single_byte_boundaries(self):
        layout = decode(bytes([0xEE, 0xEF]))
        assert layout.boundaries == frozenset({0, 1})
        assert layout.instructions[0].info is None
        assert layout.instructions[0].mnemonic == "0xee"

    def test_truncated_layout_records_pc(self):
        code = assemble("PUSH 1\nRETURN")[:3]
        layout = decode(code)
        assert layout.truncated_pc == 0
        assert layout.instructions[0].truncated

    def test_instruction_lookup(self):
        code = assemble("PUSH 7\nRETURN")
        layout = decode(code)
        assert layout.instruction_at(0).immediate == 7
        assert layout.instruction_at(9).mnemonic == "RETURN"
        assert layout.instruction_at(4) is None
