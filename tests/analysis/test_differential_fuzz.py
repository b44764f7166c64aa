"""Differential fuzzing: verifier vs. machine, compiled SVM vs. reference.

The shipped ``SVM`` runs compiled segments (``repro.vm.compiler``); the
per-instruction interpreter it replaced lives on as
``tests/reference.py::ReferenceSVM``.  Over every generated and mutated
program, several gas limits and several argument tuples, both must
return **equal** ``Receipt``s — success, return value, ``gas_used``,
error text, logs and the RWSet of failed runs included (the last block
of this file).

Against the static verifier, two invariants, checked over hundreds of
seeded programs:

1. **Acceptance soundness** — if the verifier accepts a program, running
   it never produces a *structural* failure (unknown opcode, truncated
   immediate, stack underflow/overflow, bad jump, ``ARG`` out of range).
   Resource outcomes (revert, gas/step limits) are allowed: the verifier
   reasons about shape, not termination of user logic.
2. **Rejection completeness for structural faults** — if the interpreter
   dies with a structural error, the verifier must have rejected the
   program.  A structural fault the verifier misses is a soundness bug.

On top of that, for accepted programs with exact static key sets, the
observed runtime RW-set must be contained in the statically predicted
one, and a finite static gas bound must actually cover the run.

The generator assembles stack-depth-tracked programs (so most are
well-formed) and then mutates a slice of them at the byte level
(truncation, flips, insertions) to exercise the rejection direction.
"""

from __future__ import annotations

import random

from repro.analysis.static import classify_bytecode, resolve_sites, verify_bytecode
from repro.vm import ExecutionContext, LoggedStorage, SVM, assemble
from repro.vm.compiler import MAX_SEGMENT_STEPS, CompiledCode, compile_code
from repro.vm.machine import default_key_renderer
from tests.reference import ReferenceSVM

PROGRAM_COUNT = 420
MUTANT_COUNT = 180
DELTA_PROGRAM_COUNT = 160
NARGS = 3
CALLER = 9

_STRUCTURAL_MARKERS = (
    "unknown opcode",
    "truncated immediate",
    "stack underflow",
    "beyond stack",
    "out of range",
    "stack overflow",
    "beyond code size",
    "lands inside an instruction immediate",
    "unhandled opcode",
)
_RESOURCE_MARKERS = ("reverted", "gas limit", "step limit")


def is_structural(error: str | None) -> bool:
    if error is None:
        return False
    if any(marker in error for marker in _STRUCTURAL_MARKERS):
        return True
    assert any(marker in error for marker in _RESOURCE_MARKERS), (
        f"unclassified runtime error: {error!r}"
    )
    return False


_BINARY = ("ADD", "SUB", "MUL", "DIV", "MOD", "LT", "GT", "EQ", "AND", "OR")


def generate_program(rng: random.Random) -> str:
    """Emit assembly with tracked stack depth (usually verifier-clean)."""
    lines: list[str] = []
    depth = 0
    label_id = 0
    for _ in range(rng.randrange(4, 28)):
        choices: list[str] = ["push", "arg", "caller"]
        if depth >= 1:
            choices += ["unary", "pop", "sload", "dup", "branch"]
        if depth >= 2:
            choices += ["binary", "sstore", "log", "swap"]
        kind = rng.choice(choices)
        if kind == "push":
            lines.append(f"PUSH {rng.randrange(0, 2**64)}")
            depth += 1
        elif kind == "arg":
            lines.append(f"ARG {rng.randrange(NARGS)}")
            depth += 1
        elif kind == "caller":
            lines.append("CALLER")
            depth += 1
        elif kind == "unary":
            lines.append(rng.choice(("ISZERO", "NOT")))
        elif kind == "pop":
            lines.append("POP")
            depth -= 1
        elif kind == "dup":
            lines.append(f"DUP {rng.randrange(1, depth + 1)}")
            depth += 1
        elif kind == "swap":
            lines.append(f"SWAP {rng.randrange(1, depth)}")
        elif kind == "binary":
            lines.append(rng.choice(_BINARY))
            depth -= 1
        elif kind == "sload":
            # Mask the key so static keys stay concrete small ints.
            lines.append("PUSH 15")
            lines.append("AND")
            lines.append("SLOAD")
        elif kind == "sstore":
            lines.append("SWAP 1")
            lines.append("PUSH 15")
            lines.append("AND")
            lines.append("SWAP 1")
            lines.append("SSTORE")
            depth -= 2
        elif kind == "log":
            lines.append("LOG")
            depth -= 2
        elif kind == "branch":
            # Consume the top as a condition; the skipped filler is
            # stack-neutral so both paths join at the same depth.
            label = f"skip{label_id}"
            label_id += 1
            lines.append(f"PUSH @{label}")
            lines.append("SWAP 1")
            lines.append("JUMPI")
            for _ in range(rng.randrange(1, 3)):
                lines.append(f"PUSH {rng.randrange(100)}")
                lines.append("POP")
            lines.append(f"{label}:")
            depth -= 1
    if depth >= 1 and rng.random() < 0.8:
        lines.append("RETURN")
    else:
        lines.append("STOP")
    return "\n".join(lines)


def mutate(code: bytes, rng: random.Random) -> bytes:
    kind = rng.choice(("truncate", "flip", "insert"))
    if kind == "truncate" and len(code) > 1:
        return code[: rng.randrange(1, len(code))]
    if kind == "insert":
        pos = rng.randrange(len(code) + 1)
        return code[:pos] + bytes([rng.randrange(256)]) + code[pos:]
    pos = rng.randrange(len(code))
    return code[:pos] + bytes([code[pos] ^ (1 << rng.randrange(8))]) + code[pos:][1:]


def run(code: bytes, gas_limit: int):
    storage = LoggedStorage(lambda _address: 7)
    context = ExecutionContext(
        storage=storage,
        args=tuple(range(1, NARGS + 1)),
        caller=CALLER,
        gas_limit=gas_limit,
    )
    return SVM().execute(code, context)


def check_program(code: bytes) -> None:
    report = verify_bytecode(code, nargs=NARGS)
    if report.ok and report.gas_bound is not None:
        gas_limit = report.gas_bound
    else:
        gas_limit = 1_000_000
    receipt = run(code, gas_limit)

    if report.ok:
        # Accepted => never a structural failure; a finite gas bound
        # must also cover the worst real path.
        assert not is_structural(receipt.error), (
            f"verifier accepted but runtime failed structurally: "
            f"{receipt.error!r}\ncode={code.hex()}"
        )
        if report.gas_bound is not None:
            assert receipt.error is None or receipt.error == "reverted", (
                f"finite gas bound {report.gas_bound} violated: "
                f"{receipt.error!r}\ncode={code.hex()}"
            )
        static_reads, static_writes = report.static_addresses(
            tuple(range(1, NARGS + 1)), caller=CALLER
        )
        observed = receipt.rwset
        if static_reads is not None:
            assert set(observed.reads) <= static_reads, code.hex()
        if static_writes is not None:
            assert set(observed.writes) <= static_writes, code.hex()
    elif is_structural(receipt.error):
        # This branch is vacuous for rejected programs that *happen* to
        # run (the verifier is over-approximate); the contract is only
        # that structural crashes never slip past it — checked above.
        pass


def test_generated_programs_agree():
    rng = random.Random(0xD1FF)
    for index in range(PROGRAM_COUNT):
        source = generate_program(rng)
        code = assemble(source)
        report = verify_bytecode(code, nargs=NARGS)
        assert report.ok, (
            f"generator emitted a rejected program #{index}:\n{source}\n"
            + "\n".join(f.message for f in report.findings)
        )
        check_program(code)


def test_mutated_programs_agree():
    rng = random.Random(0xBEEF)
    rejected = 0
    for _ in range(MUTANT_COUNT):
        code = mutate(assemble(generate_program(rng)), rng)
        report = verify_bytecode(code, nargs=NARGS)
        receipt = run(code, 1_000_000)
        if is_structural(receipt.error):
            assert not report.ok, (
                f"runtime structural error {receipt.error!r} on a program "
                f"the verifier accepted\ncode={code.hex()}"
            )
        if report.ok:
            check_program(code)
        else:
            rejected += 1
    # The mutator must actually exercise the rejection path.
    assert rejected > MUTANT_COUNT // 4


def generate_delta_program(rng: random.Random):
    """Straight-line ``K <- K ± E`` read-modify-writes plus masked noise.

    Noise keys are masked to 0..15 while the RMW keys live at 16+, so
    no alias kill fires and every emitted site is provably commutative —
    the classifier must find all of them, and the dynamic promotion
    check must accept each one.  Returns the source and the expected
    ``(address, signed delta)`` pairs.
    """
    args = tuple(range(1, NARGS + 1))
    lines: list[str] = []
    specs: list[tuple[str, int]] = []

    def noise() -> list[str]:
        chunk: list[str] = []
        for _ in range(rng.randrange(0, 4)):
            pick = rng.randrange(3)
            if pick == 0:
                chunk += [f"PUSH {rng.randrange(100)}", "POP"]
            elif pick == 1:
                chunk += [
                    f"ARG {rng.randrange(NARGS)}",
                    "PUSH 15",
                    "AND",
                    "SLOAD",
                    "POP",
                ]
            else:
                chunk += [
                    f"PUSH {rng.randrange(16)}",
                    f"PUSH {rng.randrange(2**20)}",
                    "SSTORE",
                ]
        return chunk

    for key in rng.sample(range(16, 64), k=rng.randrange(1, 3)):
        lines += noise()
        sign = rng.choice((1, -1))
        kind = rng.choice(("push", "arg", "caller", "sum"))
        if kind == "push":
            value = rng.randrange(1, 1000)
            operand = [f"PUSH {value}"]
        elif kind == "arg":
            j = rng.randrange(NARGS)
            value = args[j]
            operand = [f"ARG {j}"]
        elif kind == "caller":
            value = CALLER
            operand = ["CALLER"]
        else:
            j = rng.randrange(NARGS)
            const = rng.randrange(1, 50)
            value = args[j] + const
            operand = [f"ARG {j}", f"PUSH {const}", "ADD"]
        lines.append(f"PUSH {key}")
        lines.append("DUP 1")
        lines.append("SLOAD")
        lines += operand
        lines.append("ADD" if sign == 1 else "SUB")
        lines.append("SSTORE")
        specs.append((default_key_renderer(key), sign * value))
    lines += noise()
    lines.append("STOP")
    return "\n".join(lines), specs


def test_delta_classification_agrees_with_dynamic_promotion():
    """Static delta classification == what the rw-logger promotes."""
    rng = random.Random(0xDE17A)
    args = tuple(range(1, NARGS + 1))
    promoted_total = 0
    for index in range(DELTA_PROGRAM_COUNT):
        source, specs = generate_delta_program(rng)
        code = assemble(source)
        check_program(code)  # structural + containment invariants

        classification = classify_bytecode(code, nargs=NARGS)
        sites = resolve_sites(
            classification, args, CALLER, default_key_renderer
        )
        expected = {
            address: delta % 2**64 for address, delta in specs
        }
        assert dict(sites) == expected, (
            f"classifier missed provably commutative sites in program "
            f"#{index}:\n{source}"
        )

        plain = run(code, 1_000_000)
        assert plain.error is None, source
        storage = LoggedStorage(lambda _address: 7)
        context = ExecutionContext(
            storage=storage,
            args=args,
            caller=CALLER,
            gas_limit=1_000_000,
            delta_sites=tuple(sites),
        )
        promoted = SVM().execute(code, context)
        assert promoted.error is None

        for address, signed in specs:
            # Promotion moved the RMW out of the plain read/write sets...
            assert promoted.rwset.deltas[address] == signed
            assert address not in promoted.rwset.reads
            assert address not in promoted.rwset.writes
            # ...and the fold reproduces the plain write exactly.
            assert (7 + signed) % 2**64 == plain.rwset.writes[address]
            promoted_total += 1
        # Everything else is untouched by promotion.
        untouched = {
            a: v for a, v in plain.rwset.writes.items() if a not in expected
        }
        assert dict(promoted.rwset.writes) == untouched
        assert set(plain.rwset.reads) - set(expected) == set(
            promoted.rwset.reads
        )
    assert promoted_total >= DELTA_PROGRAM_COUNT


def test_delta_promotion_preserves_static_containment():
    """Static ⊇ dynamic still holds when deltas leave the plain sets."""
    rng = random.Random(0xF01D)
    args = tuple(range(1, NARGS + 1))
    for _ in range(DELTA_PROGRAM_COUNT // 2):
        source, _specs = generate_delta_program(rng)
        code = assemble(source)
        report = verify_bytecode(code, nargs=NARGS)
        assert report.ok, source
        static_reads, static_writes = report.static_addresses(args, caller=CALLER)
        sites = resolve_sites(
            classify_bytecode(code, nargs=NARGS), args, CALLER, default_key_renderer
        )
        storage = LoggedStorage(lambda _address: 7)
        context = ExecutionContext(
            storage=storage,
            args=args,
            caller=CALLER,
            gas_limit=1_000_000,
            delta_sites=tuple(sites),
        )
        receipt = SVM().execute(code, context)
        assert receipt.error is None
        observed = receipt.rwset
        if static_reads is not None:
            assert set(observed.reads) | set(observed.deltas) <= static_reads
        if static_writes is not None:
            assert set(observed.writes) | set(observed.deltas) <= static_writes


def test_total_program_budget():
    assert PROGRAM_COUNT + MUTANT_COUNT + DELTA_PROGRAM_COUNT >= 500


# ------------------------------------------- compiled SVM == reference loop


def slot_value(address: str) -> int:
    """A snapshot whose values differ by slot (operand swaps show up)."""
    return int(address.rpartition(":")[2], 16) % 1000 + 3


def receipts(code: bytes, gas_limit: int, args: tuple[int, ...]):
    """``(compiled, reference)`` receipts of one call on fresh storage."""
    out = []
    for machine in (SVM(), ReferenceSVM()):
        context = ExecutionContext(
            storage=LoggedStorage(slot_value),
            args=args,
            caller=CALLER,
            gas_limit=gas_limit,
        )
        out.append(machine.execute(code, context))
    return out


def fuzz_corpus() -> tuple[list[bytes], list[bytes]]:
    """The generated and the mutated programs of the two sweeps above."""
    rng = random.Random(0xD1FF)
    generated = [assemble(generate_program(rng)) for _ in range(PROGRAM_COUNT)]
    rng = random.Random(0xBEEF)
    mutants = [
        mutate(assemble(generate_program(rng)), rng) for _ in range(MUTANT_COUNT)
    ]
    return generated, mutants


def test_compiled_receipts_equal_reference_receipts():
    rng = random.Random(0xC0DE)
    generated, mutants = fuzz_corpus()
    failures = set()
    for code in generated + mutants:
        gas_limits = (1_000_000, 10_000_000, rng.randrange(12_000), rng.randrange(300), 5)
        arg_tuples = (
            (1, 2, 3),
            (),
            (12,),
            tuple(rng.randrange(2**64) for _ in range(rng.randrange(5))),
        )
        for gas_limit in gas_limits:
            for args in arg_tuples:
                compiled, reference = receipts(code, gas_limit, args)
                assert compiled == reference, (
                    f"code={code.hex()} gas_limit={gas_limit} args={args}"
                )
                failures.add((reference.error or "ok").split(" ")[0])
    # The sweep must reach every way a run can end.
    assert failures >= {
        "ok", "reverted", "gas", "stack", "ARG", "DUP", "SWAP", "unknown",
        "truncated", "jump",
    }, failures


LOOPS = {
    # 250 000 iterations x 16 gas fit in 10 M: the step limit ends it.
    "step limit": ("top:\nPUSH 1\nPOP\nPUSH @top\nJUMP", 10_000_000, ()),
    # One item deeper per iteration: overflow at depth 1 025.
    "stack overflow": ("top:\nPUSH 1\nPUSH @top\nJUMP", 1_000_000, ()),
    "gas limit": ("top:\nPUSH 1\nPOP\nPUSH @top\nJUMP", 100_000, ()),
}


def test_loops_end_the_same_way():
    for marker, (source, gas_limit, args) in LOOPS.items():
        compiled, reference = receipts(assemble(source), gas_limit, args)
        assert compiled == reference
        assert marker in reference.error


def test_long_straight_line_code_is_cut_into_segments():
    """1 000 instructions, no jump: several segments, one receipt."""
    source = "PUSH 0\n" + "ARG 0\nADD\nDUP 1\nDUP 1\nSSTORE\n" * 200 + "RETURN"
    code = assemble(source)
    for gas_limit in (10_000_000, 700_000, 2_000):
        compiled, reference = receipts(code, gas_limit, (3,))
        assert compiled == reference
    assert compiled.error.startswith("gas limit 2000 exceeded")
    assert len(compile_code(code)._segments[False]) == 1_002 // MAX_SEGMENT_STEPS + 1


def test_computed_jump_targets():
    """``PUSH 5  ARG 0  ADD  JUMP``: the target is known only at run time."""
    code = assemble("PUSH 5\nARG 0\nADD\nJUMP\nPUSH 42\nRETURN\nARG 1\nRETURN")
    expected = {
        8: None,  # pc 13, ``PUSH 42``: returns 42
        9: "lands inside an instruction immediate",
        17: "stack underflow at pc 22 (RETURN)",
        18: "ARG 1 out of range at pc 23",  # a boundary no static jump names
        19: "lands inside an instruction immediate",  # ``ARG 1``'s operand byte
        21: "beyond code size",
        2**64 - 5: "gas limit",  # wraps to pc 0 and spins
    }
    for arg, marker in expected.items():
        compiled, reference = receipts(code, 1_000_000, (arg,))
        assert compiled == reference, arg
        if marker is None:
            assert reference.return_value == 42
        else:
            assert marker in reference.error, (arg, reference.error)


def test_compiling_never_raises():
    """No byte string can break (or inject into) the generated source.

    Both variants of the entry segment of every string of length <= 1,
    of every two-byte string that starts with a known opcode (the second
    byte is its immediate, its successor or a truncated tail) and of an
    unknown opcode followed by each quoting / escape / newline byte;
    then every fuzz mutant, at every instruction boundary.
    """
    from repro.vm import Op

    strings = [b""] + [bytes([first]) for first in range(256)]
    for first in range(256):
        seconds = range(256) if first in set(Op) else b"\n\r\"'\\{}#\x00\xff"
        strings += [bytes([first, second]) for second in seconds]
    for code in strings:
        unit = CompiledCode(code)
        unit.segment(0, checked=False)
        unit.segment(0, checked=True)
    segments = 0
    for code in fuzz_corpus()[1]:
        unit = CompiledCode(code)
        unit.segment(0, checked=True)
        for pc in unit.layout.boundaries:
            unit.segment(pc, checked=False)
            segments += 1
    assert segments > 3_000
