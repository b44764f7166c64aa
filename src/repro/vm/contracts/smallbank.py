"""The SmallBank contract: SVM assembly and its native twin.

Storage-key convention: ``key = (domain << 32) | customer`` with domain 0
for savings and 1 for checking; the key renderer maps these onto the same
``sav:...``/``chk:...`` state addresses the analytic workload generator
uses, so VM execution, native execution, and the synthetic rw-sets are
conflict-identical (asserted by integration tests).

Overdrafts revert (state integers are non-negative), replacing classic
SmallBank's negative balances; deposits and transfers between the
default 10k-balance accounts rarely trigger this.
"""

from __future__ import annotations

from repro.errors import VMRevert
from repro.txn.rwset import Address
from repro.vm.assembler import assemble
from repro.vm.logger import LoggedStorage
from repro.vm.native import ContractRegistry, NativeContract

CONTRACT_NAME = "smallbank"

_CHECKING_BIT = 1 << 32


def smallbank_key_renderer(key: int) -> Address:
    """Map an SVM storage key to the canonical account address."""
    customer = key & 0xFFFFFFFF
    if key & _CHECKING_BIT:
        return f"chk:{customer:06d}"
    return f"sav:{customer:06d}"


def _savings(customer: int) -> Address:
    return f"sav:{customer:06d}"


def _checking(customer: int) -> Address:
    return f"chk:{customer:06d}"


# --------------------------------------------------------------- native twin


def _update_savings(storage: LoggedStorage, args: tuple[int, ...], caller: int = 0) -> int:
    customer, amount = args
    balance = storage.load(_savings(customer))
    storage.store(_savings(customer), balance + amount)
    return 1


def _update_balance(storage: LoggedStorage, args: tuple[int, ...], caller: int = 0) -> int:
    customer, amount = args
    balance = storage.load(_checking(customer))
    storage.store(_checking(customer), balance + amount)
    return 1


def _send_payment(storage: LoggedStorage, args: tuple[int, ...], caller: int = 0) -> int:
    src, dst, amount = args
    src_balance = storage.load(_checking(src))
    if src_balance < amount:
        raise VMRevert()
    storage.store(_checking(src), src_balance - amount)
    dst_balance = storage.load(_checking(dst))
    storage.store(_checking(dst), dst_balance + amount)
    return 1


def _write_check(storage: LoggedStorage, args: tuple[int, ...], caller: int = 0) -> int:
    customer, amount = args
    savings = storage.load(_savings(customer))
    checking = storage.load(_checking(customer))
    if savings + checking < amount:
        raise VMRevert()
    if checking < amount:
        raise VMRevert()
    storage.store(_checking(customer), checking - amount)
    return 1


def _amalgamate(storage: LoggedStorage, args: tuple[int, ...], caller: int = 0) -> int:
    src, dst = args
    savings = storage.load(_savings(src))
    checking = storage.load(_checking(src))
    dst_balance = storage.load(_checking(dst))
    storage.store(_checking(dst), dst_balance + savings + checking)
    storage.store(_checking(src), 0)
    storage.store(_savings(src), 0)
    return 1


def _get_balance(storage: LoggedStorage, args: tuple[int, ...], caller: int = 0) -> int:
    customer = args[0]
    return storage.load(_savings(customer)) + storage.load(_checking(customer))


SMALLBANK_ARITIES: dict[str, int] = {
    "updateSavings": 2,
    "updateBalance": 2,
    "sendPayment": 3,
    "writeCheck": 2,
    "almagate": 2,
    "getBalance": 1,
}
"""Declared argument count per method; the static verifier bounds
``ARG`` indices against these, mirroring the machine's runtime
range check."""

NATIVE_SMALLBANK = NativeContract(
    name=CONTRACT_NAME,
    functions={
        "updateSavings": _update_savings,
        "updateBalance": _update_balance,
        "sendPayment": _send_payment,
        "writeCheck": _write_check,
        "almagate": _amalgamate,
        "getBalance": _get_balance,
    },
    arities=SMALLBANK_ARITIES,
)


# ------------------------------------------------------------- SVM assembly

_UPDATE_SAVINGS_ASM = """
; updateSavings(customer, amount): savings[customer] += amount
ARG 0           ; [savk]
DUP 1
SLOAD           ; [savk, sav]
ARG 1
ADD             ; [savk, sav+amount]
SSTORE
PUSH 1
RETURN
"""

_UPDATE_BALANCE_ASM = """
; updateBalance(customer, amount): checking[customer] += amount
ARG 0
PUSH 4294967296
ADD             ; [chkk]
DUP 1
SLOAD           ; [chkk, chk]
ARG 1
ADD
SSTORE
PUSH 1
RETURN
"""

_SEND_PAYMENT_ASM = """
; sendPayment(src, dst, amount): move amount between checking accounts
ARG 0
PUSH 4294967296
ADD             ; [srck]
DUP 1
SLOAD           ; [srck, srcbal]
DUP 1
ARG 2
LT              ; [srck, srcbal, srcbal<amount]
PUSH @fail
SWAP 1
JUMPI           ; [srck, srcbal]
ARG 2
SUB             ; [srck, srcbal-amount]
SSTORE
ARG 1
PUSH 4294967296
ADD             ; [dstk]
DUP 1
SLOAD           ; [dstk, dstbal]
ARG 2
ADD
SSTORE
PUSH 1
RETURN
fail:
REVERT
"""

_WRITE_CHECK_ASM = """
; writeCheck(customer, amount): deduct from checking; total funds checked
ARG 0
SLOAD           ; [sav]
ARG 0
PUSH 4294967296
ADD             ; [sav, chkk]
DUP 1
SLOAD           ; [sav, chkk, chk]
DUP 3
DUP 2
ADD             ; [sav, chkk, chk, sav+chk]
ARG 1
LT              ; [sav, chkk, chk, total<amount]
PUSH @fail
SWAP 1
JUMPI           ; [sav, chkk, chk]
DUP 1
ARG 1
LT              ; [sav, chkk, chk, chk<amount]
PUSH @fail
SWAP 1
JUMPI           ; [sav, chkk, chk]
ARG 1
SUB             ; [sav, chkk, chk-amount]
SSTORE          ; [sav]
POP
PUSH 1
RETURN
fail:
REVERT
"""

_AMALGAMATE_ASM = """
; almagate(src, dst): move all of src's funds into dst's checking
ARG 0           ; [savk]
DUP 1
SLOAD           ; [savk, sav]
ARG 0
PUSH 4294967296
ADD             ; [savk, sav, chkk]
DUP 1
SLOAD           ; [savk, sav, chkk, chk]
ARG 1
PUSH 4294967296
ADD             ; [savk, sav, chkk, chk, dstk]
DUP 1
SLOAD           ; [savk, sav, chkk, chk, dstk, dstbal]
DUP 5           ; [..., dstbal, sav]
DUP 4           ; [..., dstbal, sav, chk]
ADD
ADD             ; [savk, sav, chkk, chk, dstk, dstbal+sav+chk]
SSTORE          ; [savk, sav, chkk, chk]
POP             ; [savk, sav, chkk]
PUSH 0
SSTORE          ; [savk, sav]
POP             ; [savk]
PUSH 0
SSTORE          ; []
PUSH 1
RETURN
"""

_GET_BALANCE_ASM = """
; getBalance(customer): return savings + checking
ARG 0
SLOAD           ; [sav]
ARG 0
PUSH 4294967296
ADD
SLOAD           ; [sav, chk]
ADD
RETURN
"""

SMALLBANK_ASSEMBLY: dict[str, str] = {
    "updateSavings": _UPDATE_SAVINGS_ASM,
    "updateBalance": _UPDATE_BALANCE_ASM,
    "sendPayment": _SEND_PAYMENT_ASM,
    "writeCheck": _WRITE_CHECK_ASM,
    "almagate": _AMALGAMATE_ASM,
    "getBalance": _GET_BALANCE_ASM,
}


def compile_smallbank() -> dict[str, bytes]:
    """Assemble every SmallBank function into bytecode."""
    return {name: assemble(source) for name, source in SMALLBANK_ASSEMBLY.items()}


def default_registry(include_bytecode: bool = True) -> ContractRegistry:
    """A registry with SmallBank deployed (native, plus bytecode by default)."""
    registry = ContractRegistry()
    registry.register_native(NATIVE_SMALLBANK)
    if include_bytecode:
        registry.register_bytecode(
            CONTRACT_NAME, compile_smallbank(), smallbank_key_renderer
        )
    return registry
