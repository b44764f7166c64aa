"""Exception hierarchy shared across the repro packages.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch a single base class at API boundaries while tests can
assert on the precise subclass.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class TransactionError(ReproError):
    """A transaction is malformed or used inconsistently."""


class SchedulingError(ReproError):
    """Concurrency control could not produce a valid schedule."""


class CycleBudgetExceeded(SchedulingError):
    """Johnson's cycle enumeration exceeded its configured budget.

    This models the out-of-memory failures the paper reports for the CG
    scheme under high skew: instead of exhausting host memory, the bounded
    enumerator raises this error, which harnesses report as a failed run.
    """

    def __init__(self, budget: int, message: str | None = None) -> None:
        self.budget = budget
        super().__init__(message or f"cycle enumeration exceeded budget of {budget}")


class CertificationError(SchedulingError):
    """The independent schedule certifier rejected an emitted schedule.

    Raised only when ``PipelineConfig.certify`` is on: the proof-carrying
    checker (:mod:`repro.analysis.certify`) rebuilt the conflict graph
    from the admitted read/write sets and found the commit schedule —
    or its abort accounting — inconsistent.
    """


class ExecutionError(ReproError):
    """The virtual machine failed to execute a transaction."""


class VMRevert(ExecutionError):
    """Contract code executed a REVERT; state effects must be discarded."""


class OutOfGas(ExecutionError):
    """Gas limit exhausted during contract execution."""


class InvalidOpcode(ExecutionError):
    """The virtual machine encountered an unknown or malformed instruction."""


class InvalidJump(ExecutionError):
    """A jump targeted a pc outside the code or inside an immediate.

    Landing inside a ``PUSH``/``ARG``/``DUP``/``SWAP`` immediate would
    execute operand bytes as opcodes; both the machine and the static
    verifier reject such targets against the same instruction-boundary set.
    """


class TruncatedBytecode(ExecutionError):
    """An instruction's immediate operand runs past the end of the code."""


class AssemblyError(ReproError):
    """SVM assembly source could not be assembled into bytecode."""


class StateError(ReproError):
    """Account state was accessed or mutated inconsistently."""


class TrieError(StateError):
    """Merkle Patricia Trie invariant violation or malformed node."""


class ProofError(TrieError):
    """A Merkle proof failed verification."""


class StorageError(ReproError):
    """The key-value storage engine failed."""


class CorruptionError(StorageError):
    """Persistent data (WAL or SSTable) failed checksum or format checks."""


class ChainError(ReproError):
    """DAG blockchain structural invariant violation."""


class BlockValidationError(ChainError):
    """A block failed validation (bad parent, state root, or PoW)."""


class NetworkError(ReproError):
    """Discrete-event network simulation failure."""


class WorkloadError(ReproError):
    """Workload generation was misconfigured."""
