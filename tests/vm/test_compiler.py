"""The segment compiler: fast vs checked variants, laziness, structure.

Receipt equality with the reference interpreter over fuzzed programs is
in ``tests/analysis/test_differential_fuzz.py``; these tests look at the
compiler's own moving parts.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro
from repro.errors import ExecutionError, VMRevert
from repro.vm import ExecutionContext, LoggedStorage, SVM, assemble
from repro.vm.compiler import HALT, MAX_STEPS, CompiledCode, compile_code
from repro.vm.contracts import (
    compile_smallbank,
    compile_token,
    smallbank_key_renderer,
    token_key_renderer,
)

STATE = {
    "sav:000001": 100,
    "chk:000001": 40,
    "chk:000002": 7,
    "bal:000001": 1_000,
    "bal:000002": 50,
    "alw:000001:000002": 200,
    "sup:total": 1_050,
}

# (function, args, caller): each shipped function on a succeeding call,
# plus the calls that take a revert branch or run out of arguments.
SMALLBANK_CALLS = [
    ("updateSavings", (1, 10), 0),
    ("updateBalance", (1, 10), 0),
    ("sendPayment", (1, 2, 30), 0),
    ("sendPayment", (1, 2, 41), 0),  # overdraft: REVERT
    ("writeCheck", (1, 25), 0),
    ("writeCheck", (1, 141), 0),  # REVERT on the first guard
    ("writeCheck", (1, 41), 0),  # REVERT on the second guard
    ("almagate", (1, 2), 0),
    ("getBalance", (1,), 0),
    ("sendPayment", (1, 2), 0),  # ARG 2 out of range, after a load
]
TOKEN_CALLS = [
    ("mint", (2, 5), 0),
    ("transfer", (2, 100), 1),
    ("transfer", (2, 1_001), 1),  # REVERT
    ("approve", (2, 9), 1),
    ("transferFrom", (1, 2, 150), 2),
    ("transferFrom", (1, 2, 201), 2),  # over the allowance: REVERT
    ("balanceOf", (1,), 0),
    ("totalSupply", (), 0),
    ("mint", (), 0),  # ARG 0 out of range
]


def context_for(renderer, args, caller, gas_limit=1_000_000):
    return ExecutionContext(
        storage=LoggedStorage(lambda address: STATE.get(address, 0)),
        args=args,
        caller=caller,
        gas_limit=gas_limit,
        key_renderer=renderer,
    )


def run_variant(code, context, checked):
    """Drive one variant only; returns what ended the run and the RWSet."""
    unit = compile_code(code)
    stack, logs = [], []
    pc = gas = steps = 0
    try:
        while pc != HALT:
            outcome = unit.segment(pc, checked)(context, stack, gas, steps, logs)
            assert outcome is not None, "the fast variant declined a healthy call"
            pc, gas, steps, value = outcome
        ending = ("halt", value, gas, logs)
    except VMRevert as exc:
        ending = ("revert", exc.args)
    except ExecutionError as exc:
        ending = (type(exc).__name__, str(exc))
    return ending, context.storage.rwset()


def shipped_calls():
    smallbank, token = compile_smallbank(), compile_token()
    for function, args, caller in SMALLBANK_CALLS:
        yield smallbank[function], smallbank_key_renderer, args, caller
    for function, args, caller in TOKEN_CALLS:
        yield token[function], token_key_renderer, args, caller


class TestCheckedVariant:
    def test_every_shipped_function_is_listed(self):
        assert {name for name, _, _ in SMALLBANK_CALLS} == set(compile_smallbank())
        assert {name for name, _, _ in TOKEN_CALLS} == set(compile_token())

    def test_checked_variant_equals_fast_variant_on_shipped_contracts(self):
        endings = set()
        for code, renderer, args, caller in shipped_calls():
            checked = run_variant(code, context_for(renderer, args, caller), True)
            if checked[0][0] == "ExecutionError":
                # Too few arguments: the fast variant declines at entry.
                receipt = SVM().execute(code, context_for(renderer, args, caller))
                assert receipt.error == checked[0][1]
                assert receipt.rwset.reads == checked[1].reads
            else:
                fast = run_variant(code, context_for(renderer, args, caller), False)
                assert fast == checked
            endings.add(checked[0][0])
        assert endings == {"halt", "revert", "ExecutionError"}

    def test_failed_precondition_has_no_effect_and_runs_checked(self):
        code = compile_smallbank()["sendPayment"]
        # Enough gas for the first load, not for the store after it.
        context = context_for(smallbank_key_renderer, (1, 2, 30), 0, gas_limit=5_000)
        fast = compile_code(code).segment(0, checked=False)
        assert fast(context, [], 0, 0, []) is None
        assert not context.storage.rwset().reads
        receipt = SVM().execute(code, context)
        assert receipt.error == "gas limit 5000 exceeded at pc 35"  # the SSTORE
        assert receipt.gas_used == 5_000
        assert dict(receipt.rwset.reads) == {"chk:000001": 40}
        assert not receipt.rwset.writes

    def test_step_limit_is_part_of_the_precondition(self):
        unit = CompiledCode(assemble("PUSH 1\nPOP\nSTOP"))
        context = context_for(smallbank_key_renderer, (), 0)
        assert unit.segment(0, False)(context, [], 0, MAX_STEPS - 3, []) is not None
        assert unit.segment(0, False)(context, [], 0, MAX_STEPS - 2, []) is None
        with pytest.raises(ExecutionError, match="step limit"):
            unit.segment(0, True)(context, [], 0, MAX_STEPS - 2, [])


class TestVirtualStack:
    def test_stack_is_written_back_only_where_a_jump_leaves(self):
        source = "PUSH 7\nPUSH 8\nPUSH @next\nJUMP\nnext:\nADD\nRETURN"
        unit = CompiledCode(assemble(source))
        context = context_for(smallbank_key_renderer, (), 0)
        stack: list[int] = []
        pc, gas, steps, value = unit.segment(0, False)(context, stack, 0, 0, [])
        assert (stack, steps, value) == ([7, 8], 4, None)
        assert unit.segment(pc, False)(context, stack, gas, steps, []) == (
            HALT, gas + 3, 6, 15,
        )
        assert stack == [7, 8], "a halting segment leaves the list alone"

    def test_items_below_the_segment_stay_in_place(self):
        # Entered at depth 3: SWAP 2 reaches all three, DUP/POP cancel out.
        source = "SWAP 2\nDUP 2\nPOP\nPUSH @out\nJUMP\nout:\nSTOP"
        unit = CompiledCode(assemble(source))
        context = context_for(smallbank_key_renderer, (), 0)
        stack = [1, 2, 3]
        unit.segment(0, False)(context, stack, 0, 0, [])
        assert stack == [3, 2, 1]
        assert unit.segment(0, False)(context, [2, 3], 0, 0, []) is None
        with pytest.raises(ExecutionError, match="SWAP 2 beyond stack at pc 0"):
            unit.segment(0, True)(context, [2, 3], 0, 0, [])

    def test_constant_jump_targets_are_settled_while_compiling(self):
        bad = CompiledCode(assemble("PUSH 4\nJUMP\nPUSH 1\nRETURN"))
        with pytest.raises(ExecutionError, match="lands inside an instruction"):
            bad.segment(0, False)(context_for(smallbank_key_renderer, (), 0), [], 0, 0, [])


class TestLaziness:
    def test_segments_compile_on_first_entry(self):
        code = compile_smallbank()["sendPayment"]
        unit = CompiledCode(code)
        assert unit._segments == ({}, {})
        unit.run(context_for(smallbank_key_renderer, (1, 2, 30), 0))
        assert list(unit._segments[False]) == [0] and not unit._segments[True]
        with pytest.raises(VMRevert):
            unit.run(context_for(smallbank_key_renderer, (1, 2, 41), 0))
        assert sorted(unit._segments[False]) == [0, len(code) - 1]

    def test_compiled_code_is_cached_per_bytes(self):
        code = assemble("PUSH 1\nRETURN")
        assert compile_code(code) is compile_code(bytes(code))
        assert compile_code.cache_info().maxsize == 512


class TestOneExecutionPath:
    SRC = Path(repro.__file__).parent

    def test_machine_has_no_dispatch_loop(self):
        tree = ast.parse((self.SRC / "vm" / "machine.py").read_text())
        loops = [n for n in ast.walk(tree) if isinstance(n, (ast.While, ast.For))]
        assert not loops
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        assert not names & {"Op", "op_info", "decode"}

    def test_nothing_shipped_imports_the_reference_or_selects_an_engine(self):
        files = sorted(self.SRC.rglob("*.py"))
        assert len(files) > 80
        for path in files:
            for node in ast.walk(ast.parse(path.read_text())):
                modules = []
                if isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""]
                elif isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                for module in modules:
                    assert not module.startswith("tests"), f"{path}: {module}"
                    if "vm" in path.parts:
                        assert not module.startswith("repro.analysis"), f"{path}: {module}"
