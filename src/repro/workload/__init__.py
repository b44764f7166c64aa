"""Workload generation: SmallBank, synthetic rw-sets, Zipfian sampling."""

from repro.workload.generator import (
    SyntheticConfig,
    SyntheticWorkload,
    flatten_blocks,
)
from repro.workload.smallbank import (
    DEFAULT_ACCOUNT_COUNT,
    DEFAULT_INITIAL_BALANCE,
    SmallBankConfig,
    SmallBankOp,
    SmallBankWorkload,
    checking_address,
    initial_state,
    rwset_for,
    savings_address,
)
from repro.workload.token import (
    TokenConfig,
    TokenWorkload,
    initial_token_state,
)
from repro.workload.trace import iter_trace, load_trace, save_trace, trace_info
from repro.workload.zipf import ZipfSampler, conflict_probability

__all__ = [
    "DEFAULT_ACCOUNT_COUNT",
    "DEFAULT_INITIAL_BALANCE",
    "SmallBankConfig",
    "SmallBankOp",
    "SmallBankWorkload",
    "SyntheticConfig",
    "SyntheticWorkload",
    "TokenConfig",
    "TokenWorkload",
    "ZipfSampler",
    "checking_address",
    "conflict_probability",
    "flatten_blocks",
    "initial_state",
    "initial_token_state",
    "iter_trace",
    "load_trace",
    "save_trace",
    "trace_info",
    "rwset_for",
    "savings_address",
]
