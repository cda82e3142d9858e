"""Session-affinity routing: one session, one lane, one local store.

The paper's session protocol (§5) is *strong local learning,
conservative global merging*: during a session every weight update goes
to a session-local store, and only the end-of-session merge touches
the global database.  Serving many clients concurrently, that rule
becomes a routing constraint: all queries of one session must be
executed serially against the same local store, while *distinct*
sessions are free to run in parallel (none sees another's writes
until merge time).

:class:`SessionRouter` implements exactly that: a session id hashes to
a fixed lane (a serial execution queue owned by the worker pool).  The
hash is ``crc32``, not Python's randomized ``hash``, so placement is
stable across runs and processes.

The session's engine and local store live in the lane's
:class:`~repro.core.procpool.LaneWorker` (a thread lane's or a lane
child's, alike); the router keeps a :class:`SessionState` for
accounting and commits a session's planned merge once the server has
journaled it.
When a lane is reset (its worker lost), every session routed to it is
lost with it: :meth:`drop_lane` discards their states without merging,
so an abandoned session can never leak into the global store.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..weights.store import StoreDelta, WeightStore

if TYPE_CHECKING:  # telemetry imports stats; keep this edge type-only
    from .telemetry import MetricsRegistry

__all__ = ["SessionState", "SessionRouter"]


@dataclass
class SessionState:
    """One live session's parent-side accounting (its engine and local
    store live in the lane worker)."""

    program: str
    session: str
    lane: int
    queries: int = 0


class SessionRouter:
    """Maps sessions to lanes and keeps per-session accounting."""

    def __init__(self, n_lanes: int, registry: "MetricsRegistry"):
        if n_lanes < 1:
            raise ValueError("need at least one lane")
        self.n_lanes = int(n_lanes)
        self._sessions: dict[tuple[str, str], SessionState] = {}
        self._m_opened = registry.counter("blog_sessions_opened_total")
        self._m_merged = registry.counter("blog_sessions_merged_total")
        self._m_abandoned = registry.counter("blog_sessions_abandoned_total")
        self._m_live = registry.gauge("blog_sessions_open")

    @property
    def sessions_opened(self) -> int:
        return int(self._m_opened.value)

    @property
    def sessions_merged(self) -> int:
        return int(self._m_merged.value)

    @property
    def sessions_abandoned(self) -> int:
        return int(self._m_abandoned.value)

    # -- placement ---------------------------------------------------------
    def lane_for(self, session: str) -> int:
        """The lane a session's queries execute on (stable affinity)."""
        return zlib.crc32(session.encode("utf-8")) % self.n_lanes

    # -- session state -----------------------------------------------------
    def get(self, program: str, session: str) -> Optional[SessionState]:
        return self._sessions.get((program, session))

    def open(self, program_name: str, session: str) -> SessionState:
        """The session's state, opening it on first touch.  Pure
        parent-side accounting — the lane worker opens the session's
        engine at its first query."""
        key = (program_name, session)
        state = self._sessions.get(key)
        if state is None:
            state = SessionState(
                program=program_name, session=session, lane=self.lane_for(session)
            )
            self._sessions[key] = state
            self._m_opened.inc()
            self._m_live.set(len(self._sessions))
        return state

    def close(self, program_name: str, session: str) -> bool:
        """Drop a session's state; False if it was not live (its lane was
        reset, so it is abandoned, never merged).  Pure accounting: the
        caller plans and journals the merge, and :meth:`commit` applies
        it."""
        if self._sessions.pop((program_name, session), None) is None:
            return False
        self._m_live.set(len(self._sessions))
        return True

    def commit(self, global_store: WeightStore, delta: StoreDelta) -> None:
        """Apply a planned, journaled session merge to the global store
        and count the session as merged.

        This is the one write of a service's global store.  The caller
        runs it on the event-loop thread (global stores are
        loop-thread-only), once a durable service has journaled the delta.
        """
        global_store.apply_delta(delta)
        self._m_merged.inc()

    def drop_lane(self, lane: int, unmerged: int = 0) -> None:
        """Abandon every session routed to ``lane`` (no merges), and
        count as abandoned the ``unmerged`` closed sessions of the lane
        whose commit the caller drops with them.

        Called when a lane is reset (its worker died, or was replaced
        after a timeout): the lost worker held these sessions' engines
        and local stores, so there is nothing trustworthy left to merge.
        The next query of each session opens a fresh state.
        """
        doomed = [k for k, s in self._sessions.items() if s.lane == lane]
        for k in doomed:
            del self._sessions[k]
        self._m_abandoned.inc(len(doomed) + unmerged)
        self._m_live.set(len(self._sessions))

    # -- introspection -----------------------------------------------------
    def open_session_keys(self) -> list[tuple[str, str]]:
        """``(program, session)`` for every live session — what a graceful
        drain walks to merge surviving sessions before the final
        checkpoint (snapshot of the dict: end_session mutates it)."""
        return sorted(self._sessions.keys())

    def __len__(self) -> int:
        return len(self._sessions)
