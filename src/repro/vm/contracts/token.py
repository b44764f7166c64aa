"""A fungible-token contract (ERC20-like): SVM assembly plus native twin.

Exercises parts of the VM SmallBank does not touch — the ``CALLER``
opcode (transfer/approve act on behalf of the sender) and a two-key
allowance map — and gives the examples a second realistic workload.

Storage-key convention (rendered to string state addresses):

* balances:   ``key = holder``                     -> ``bal:<holder>``
* allowances: ``key = (1<<40) | owner<<20 | spender`` -> ``alw:<owner>:<spender>``
* supply:     ``key = 2<<40``                      -> ``sup:total``

Holder ids must fit in 20 bits.  Overdrafts and over-spends revert.
"""

from __future__ import annotations

from repro.errors import VMRevert
from repro.txn.rwset import Address
from repro.vm.assembler import assemble
from repro.vm.logger import LoggedStorage
from repro.vm.native import ContractRegistry, NativeContract

CONTRACT_NAME = "token"

_ALLOWANCE_BIT = 1 << 40
_SUPPLY_KEY = 2 << 40
_OWNER_SHIFT = 20
_ID_MASK = (1 << 20) - 1


def token_key_renderer(key: int) -> Address:
    """Map an SVM storage key to the canonical token state address."""
    if key == _SUPPLY_KEY:
        return "sup:total"
    if key & _ALLOWANCE_BIT:
        owner = (key >> _OWNER_SHIFT) & _ID_MASK
        spender = key & _ID_MASK
        return f"alw:{owner:06d}:{spender:06d}"
    return f"bal:{key & _ID_MASK:06d}"


def balance_address(holder: int) -> Address:
    """State address of a holder's balance."""
    return f"bal:{holder:06d}"


def allowance_address(owner: int, spender: int) -> Address:
    """State address of an owner->spender allowance."""
    return f"alw:{owner:06d}:{spender:06d}"


SUPPLY_ADDRESS: Address = "sup:total"


# --------------------------------------------------------------- native twin


def _mint(storage: LoggedStorage, args: tuple[int, ...], caller: int = 0) -> int:
    to, amount = args
    storage.store(balance_address(to), storage.load(balance_address(to)) + amount)
    storage.store(SUPPLY_ADDRESS, storage.load(SUPPLY_ADDRESS) + amount)
    return 1


def _transfer(storage: LoggedStorage, args: tuple[int, ...], caller: int = 0) -> int:
    to, amount = args
    src_balance = storage.load(balance_address(caller))
    if src_balance < amount:
        raise VMRevert()
    storage.store(balance_address(caller), src_balance - amount)
    storage.store(balance_address(to), storage.load(balance_address(to)) + amount)
    return 1


def _approve(storage: LoggedStorage, args: tuple[int, ...], caller: int = 0) -> int:
    spender, amount = args
    storage.store(allowance_address(caller, spender), amount)
    return 1


def _transfer_from(storage: LoggedStorage, args: tuple[int, ...], caller: int = 0) -> int:
    owner, to, amount = args
    allowance = storage.load(allowance_address(owner, caller))
    if allowance < amount:
        raise VMRevert()
    owner_balance = storage.load(balance_address(owner))
    if owner_balance < amount:
        raise VMRevert()
    storage.store(balance_address(owner), owner_balance - amount)
    storage.store(allowance_address(owner, caller), allowance - amount)
    storage.store(balance_address(to), storage.load(balance_address(to)) + amount)
    return 1


def _balance_of(storage: LoggedStorage, args: tuple[int, ...], caller: int = 0) -> int:
    return storage.load(balance_address(args[0]))


def _total_supply(storage: LoggedStorage, args: tuple[int, ...], caller: int = 0) -> int:
    return storage.load(SUPPLY_ADDRESS)


TOKEN_ARITIES: dict[str, int] = {
    "mint": 2,
    "transfer": 2,
    "approve": 2,
    "transferFrom": 3,
    "balanceOf": 1,
    "totalSupply": 0,
}
"""Declared argument count per method; the static verifier bounds
``ARG`` indices against these, mirroring the machine's runtime
range check."""

NATIVE_TOKEN = NativeContract(
    name=CONTRACT_NAME,
    functions={
        "mint": _mint,
        "transfer": _transfer,
        "approve": _approve,
        "transferFrom": _transfer_from,
        "balanceOf": _balance_of,
        "totalSupply": _total_supply,
    },
    arities=TOKEN_ARITIES,
)


# ------------------------------------------------------------- SVM assembly

_MINT_ASM = """
; mint(to, amount)
ARG 0           ; [to]
DUP 1
SLOAD           ; [to, bal]
ARG 1
ADD
SSTORE          ; []
PUSH 2199023255552   ; supply key = 2<<40
DUP 1
SLOAD
ARG 1
ADD
SSTORE
PUSH 1
RETURN
"""

_TRANSFER_ASM = """
; transfer(to, amount) from CALLER
CALLER          ; [src]
DUP 1
SLOAD           ; [src, srcbal]
DUP 1
ARG 1
LT              ; [src, srcbal, srcbal<amount]
PUSH @fail
SWAP 1
JUMPI           ; [src, srcbal]
ARG 1
SUB
SSTORE          ; []
ARG 0           ; [to]
DUP 1
SLOAD
ARG 1
ADD
SSTORE
PUSH 1
RETURN
fail:
REVERT
"""

_APPROVE_ASM = """
; approve(spender, amount) from CALLER
; key = (1<<40) | caller<<20 | spender
CALLER
PUSH 1048576    ; 1<<20
MUL
ARG 0
ADD
PUSH 1099511627776   ; 1<<40
ADD             ; [key]
ARG 1
SSTORE
PUSH 1
RETURN
"""

_TRANSFER_FROM_ASM = """
; transferFrom(owner, to, amount) by CALLER
; allowance key = (1<<40) | owner<<20 | caller
; The two guards revert through separate labels: the static verifier
; requires a consistent stack depth at every join point, and the guards
; fire at depths 2 and 3.
ARG 0
PUSH 1048576
MUL
CALLER
ADD
PUSH 1099511627776
ADD             ; [alwk]
DUP 1
SLOAD           ; [alwk, allowance]
DUP 1
ARG 2
LT              ; [alwk, allowance, allowance<amount]
PUSH @fail
SWAP 1
JUMPI           ; [alwk, allowance]
ARG 0
SLOAD           ; [alwk, allowance, ownerbal]
DUP 1
ARG 2
LT
PUSH @fail_deep
SWAP 1
JUMPI           ; [alwk, allowance, ownerbal]
; balances[owner] = ownerbal - amount
ARG 0           ; [alwk, allowance, ownerbal, ownerkey]
SWAP 1          ; [alwk, allowance, ownerkey, ownerbal]
ARG 2
SUB             ; [alwk, allowance, ownerkey, ownerbal-amount]
SSTORE          ; [alwk, allowance]
; allowance -= amount
ARG 2
SUB             ; [alwk, allowance-amount]
SSTORE          ; []
; balances[to] += amount
ARG 1
DUP 1
SLOAD
ARG 2
ADD
SSTORE
PUSH 1
RETURN
fail:
REVERT
fail_deep:
REVERT
"""

_BALANCE_OF_ASM = """
; balanceOf(holder)
ARG 0
SLOAD
RETURN
"""

_TOTAL_SUPPLY_ASM = """
; totalSupply()
PUSH 2199023255552
SLOAD
RETURN
"""

TOKEN_ASSEMBLY: dict[str, str] = {
    "mint": _MINT_ASM,
    "transfer": _TRANSFER_ASM,
    "approve": _APPROVE_ASM,
    "transferFrom": _TRANSFER_FROM_ASM,
    "balanceOf": _BALANCE_OF_ASM,
    "totalSupply": _TOTAL_SUPPLY_ASM,
}


def compile_token() -> dict[str, bytes]:
    """Assemble every token function into bytecode."""
    return {name: assemble(source) for name, source in TOKEN_ASSEMBLY.items()}


def register_token(registry: ContractRegistry, include_bytecode: bool = True) -> None:
    """Deploy the token contract into a registry."""
    registry.register_native(NATIVE_TOKEN)
    if include_bytecode:
        registry.register_bytecode(CONTRACT_NAME, compile_token(), token_key_renderer)
