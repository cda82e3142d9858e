"""The B-LOG weighting scheme (paper §4–5): pointer weight store with
the N+1 / A·N encodings, success/failure update rules, the theoretical
linear-system solution for exact weights, and session management with
conservative global merges."""

from .conditional import (
    ConditionalWeightStore,
    conditional_on_failure,
    conditional_on_success,
)
from .metrics import StoreSummary, chain_bound, store_distance, store_summary
from .persist import (
    StoreCorruptError,
    load_store,
    save_store,
    store_from_dict,
    store_to_dict,
)
from .policies import (
    POLICY_COMBINATIONS,
    on_failure_policy,
    on_success_policy,
)
from .session import MergeReport, SessionManager, plan_merge
from .store import SessionStore, StoreDelta, WeightEntry, WeightState, WeightStore
from .theory import TheoryResult, solve_weights, store_from_theory, verify_assignment
from .update import UpdateLog, apply_outcome, on_failure, on_success
from .wal import DurableStore, RecoveryInfo, WalCorruptError, WeightWal

__all__ = [
    "WeightStore",
    "WeightState",
    "WeightEntry",
    "StoreDelta",
    "SessionStore",
    "UpdateLog",
    "on_failure",
    "on_success",
    "apply_outcome",
    "TheoryResult",
    "solve_weights",
    "verify_assignment",
    "store_from_theory",
    "MergeReport",
    "SessionManager",
    "plan_merge",
    "ConditionalWeightStore",
    "conditional_on_failure",
    "conditional_on_success",
    "on_failure_policy",
    "on_success_policy",
    "POLICY_COMBINATIONS",
    "save_store",
    "load_store",
    "store_to_dict",
    "store_from_dict",
    "StoreCorruptError",
    "DurableStore",
    "WeightWal",
    "RecoveryInfo",
    "WalCorruptError",
    "StoreSummary",
    "store_summary",
    "store_distance",
    "chain_bound",
]
