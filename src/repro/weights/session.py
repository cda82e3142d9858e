"""Sessions: strong local updates, conservative global merges (§5).

"A session is defined as a succession of queries during which no
permanent updating of weights is done in the global database [...]
During a session, weight updates are kept in a separate buffer or in
local copies [...] At the end of the session the global database will
be updated in a 'conservative' way, e.g., no infinities will override
previous non-infinite weights, while other weights will be modified in
the direction indicated by the results of the session.  [...] Averaging
of modifications over different sessions is thus achieved."

The merge policy implemented here, per key:

=================  =================  =========================================
global state       local state        merged global
=================  =================  =========================================
any                UNKNOWN            unchanged (session learned nothing)
UNKNOWN            KNOWN w            KNOWN w (adopt)
UNKNOWN            INFINITE           INFINITE (allowed: no non-∞ overridden)
KNOWN g            KNOWN w            KNOWN (1-α)·g + α·w  (averaging)
KNOWN g            INFINITE           **unchanged** (the conservative rule)
INFINITE           KNOWN w            KNOWN w (a success retracts a failure)
INFINITE           INFINITE           unchanged
=================  =================  =========================================

α is the session learning rate (default 0.5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from ..ortree.tree import ArcKey
from .store import WeightEntry, WeightState, WeightStore

__all__ = [
    "MergeReport",
    "merge_conservative",
    "merge_strong",
    "SessionManager",
]


@dataclass
class MergeReport:
    """What an end-of-session merge did."""

    adopted: int = 0  # UNKNOWN -> KNOWN / INFINITE
    averaged: int = 0  # KNOWN blended toward local
    retracted: int = 0  # INFINITE -> KNOWN (success overrode failure)
    suppressed_infinities: int = 0  # local ∞ blocked by global non-∞
    unchanged: int = 0
    #: the global store's generation after this merge — the durability
    #: layer keys WAL records (and replay idempotence) on
    #: ``(session, generation)``, and clients receive it in the
    #: ``end_session`` ack so a lost-ack retry is detectable
    generation: int = 0


def merge_conservative(
    global_store: WeightStore,
    entries: Mapping[ArcKey, WeightEntry],
    alpha: float = 0.5,
) -> MergeReport:
    """Apply the §5 conservative end-of-session merge in place.

    ``entries`` is the session's "separate buffer" of updates,
    ``local.delta_since(start).entries``: only the keys the session
    wrote, so a key another session merged mid-way is not dragged back
    toward the stale copy this session inherited at open.  Pass
    ``local.snapshot()`` to merge a whole store.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must be in (0, 1]")
    report = MergeReport()
    for key, local in entries.items():
        if local.state is WeightState.UNKNOWN:
            report.unchanged += 1
            continue
        glob = global_store.entry(key)
        if local.state is WeightState.INFINITE:
            if glob.state is WeightState.UNKNOWN:
                global_store.set_infinite(key)
                report.adopted += 1
            elif glob.state is WeightState.INFINITE:
                report.unchanged += 1
            else:  # KNOWN: never overridden by an infinity
                report.suppressed_infinities += 1
            continue
        # local KNOWN
        if glob.state is WeightState.UNKNOWN:
            global_store.set_known(key, local.value)
            report.adopted += 1
        elif glob.state is WeightState.INFINITE:
            global_store.set_known(key, local.value)
            report.retracted += 1
        else:
            blended = (1.0 - alpha) * glob.value + alpha * local.value
            global_store.set_known(key, blended)
            report.averaged += 1
    return report


def merge_strong(
    global_store: WeightStore, entries: Mapping[ArcKey, WeightEntry]
) -> MergeReport:
    """The non-conservative alternative (E4 ablation): local wins outright,
    including infinities overriding known weights."""
    report = MergeReport()
    for key, local in entries.items():
        if local.state is WeightState.UNKNOWN:
            report.unchanged += 1
        elif local.state is WeightState.INFINITE:
            global_store.set_infinite(key)
            report.adopted += 1
        else:
            global_store.set_known(key, local.value)
            report.adopted += 1
    return report


class SessionManager:
    """Manages the local/global weight stores across sessions.

    Usage::

        mgr = SessionManager(WeightStore(n=16, a=16))
        mgr.begin_session()
        ...  # engine reads/writes mgr.local
        report = mgr.end_session()

    The engine always reads weights from :attr:`local` (strong,
    immediate updates); :attr:`global_store` only changes at session
    boundaries.
    """

    def __init__(self, global_store: Optional[WeightStore] = None, alpha: float = 0.5):
        # explicit None check: an empty WeightStore is falsy (len 0)
        self.global_store = WeightStore() if global_store is None else global_store
        self.alpha = alpha
        self.local: Optional[WeightStore] = None
        self._base_generation: int = 0  # local generation at begin_session
        self.sessions_completed = 0
        self.merge_reports: list[MergeReport] = []

    @property
    def in_session(self) -> bool:
        return self.local is not None

    @property
    def active(self) -> WeightStore:
        """The store the engine should read: local if in session."""
        return self.local if self.local is not None else self.global_store

    def begin_session(self) -> WeightStore:
        """Start a session: local store = copy of global."""
        if self.in_session:
            raise RuntimeError("a session is already active; end it first")
        self.local = self.global_store.copy()
        self._base_generation = self.local.generation
        return self.local

    def end_session(self, conservative: bool = True) -> MergeReport:
        """End the session, merging local results into the global store.

        Only the keys the session actually touched are merged (the §5
        "separate buffer" of updates); untouched copies inherited at
        ``begin_session`` are not re-asserted, so a concurrent merge of
        another session is never averaged back toward a stale copy.
        """
        if self.local is None:
            raise RuntimeError("no active session")
        touched = self.local.delta_since(self._base_generation).entries
        if conservative:
            report = merge_conservative(self.global_store, touched, self.alpha)
        else:
            report = merge_strong(self.global_store, touched)
        self.local = None
        self.sessions_completed += 1
        self.merge_reports.append(report)
        return report

    def abort_session(self) -> None:
        """Discard the local store without merging."""
        self.local = None
