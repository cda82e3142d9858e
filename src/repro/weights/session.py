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

:func:`plan_merge` only plans: it returns the merge as one
:class:`~repro.weights.store.StoreDelta`, and ``apply_delta`` is the
commit.  The service journals the delta before it applies it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from ..ortree.tree import ArcKey
from .store import SessionStore, StoreDelta, WeightEntry, WeightState, WeightStore

__all__ = ["MergeReport", "plan_merge", "SessionManager"]


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


def plan_merge(
    global_store: WeightStore,
    entries: Mapping[ArcKey, WeightEntry],
    *,
    alpha: float = 0.5,
    conservative: bool = True,
) -> tuple[StoreDelta, MergeReport]:
    """Plan the §5 end-of-session merge of ``entries`` into
    ``global_store``; the store is only read.

    ``entries`` is the session's "separate buffer" of updates
    (:meth:`SessionManager.session_delta`): only the keys the session
    wrote, so a key another session merged mid-way is not dragged back
    toward the value this session saw at open.  Pass
    ``local.snapshot()`` to merge a whole store.  ``conservative=False``
    is the E4 ablation: local wins outright, infinities included.

    The returned delta holds each entry the merge writes (values
    clamped at 0, builtin keys never written) and advances the
    generation by one per write, an averaged write included even when
    its value is unchanged.  ``global_store.apply_delta(delta)`` commits
    it; ``report.generation`` is the generation it commits to.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must be in (0, 1]")
    report = MergeReport()
    writes: dict[ArcKey, WeightEntry] = {}
    for key, local in entries.items():
        if local.state is WeightState.UNKNOWN:
            report.unchanged += 1
            continue
        glob = global_store.entry(key)
        if local.state is WeightState.INFINITE:
            if conservative and glob.state is WeightState.KNOWN:
                # never overridden by an infinity
                report.suppressed_infinities += 1
                continue
            if conservative and glob.state is WeightState.INFINITE:
                report.unchanged += 1
                continue
            merged = WeightEntry(WeightState.INFINITE, global_store.infinity_value)
            report.adopted += 1
        else:  # local KNOWN
            value = local.value
            if not conservative or glob.state is WeightState.UNKNOWN:
                report.adopted += 1
            elif glob.state is WeightState.INFINITE:
                report.retracted += 1
            else:
                value = (1.0 - alpha) * glob.value + alpha * local.value
                report.averaged += 1
            merged = WeightEntry(WeightState.KNOWN, max(0.0, float(value)))
        if key.kind != "builtin":  # builtins stay at probability 1
            writes[key] = merged
    base = global_store.generation
    report.generation = base + len(writes)
    return StoreDelta(base, report.generation, writes), report


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
        self.local: Optional[SessionStore] = None
        self.sessions_completed = 0

    @property
    def in_session(self) -> bool:
        return self.local is not None

    @property
    def active(self) -> WeightStore:
        """The store the engine should read: local if in session."""
        return self.local if self.local is not None else self.global_store

    def begin_session(self) -> SessionStore:
        """Start a session: the local store is an overlay on the global one."""
        if self.in_session:
            raise RuntimeError("a session is already active; end it first")
        self.local = SessionStore(self.global_store)
        return self.local

    def session_delta(self) -> StoreDelta:
        """The session's "separate buffer" (§5): what the local store
        wrote since ``begin_session``."""
        if self.local is None:
            raise RuntimeError("no active session")
        return self.local.delta()

    def end_session(self, conservative: bool = True) -> MergeReport:
        """End the session, merging local results into the global store.

        Only the keys the session actually touched are merged (the §5
        "separate buffer" of updates); keys it only read are not
        re-asserted, so a concurrent merge of another session is never
        averaged back toward what this session saw at open.
        """
        delta, report = plan_merge(
            self.global_store,
            self.session_delta().entries,
            alpha=self.alpha,
            conservative=conservative,
        )
        self.abort_session()  # first: the merge's own writes need no before-images
        self.global_store.apply_delta(delta)
        self.sessions_completed += 1
        return report

    def abort_session(self) -> None:
        """Discard the local store without merging."""
        if self.local is not None:
            self.local.close()
            self.local = None
