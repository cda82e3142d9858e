"""The weight store: per-pointer weights with the paper's encodings (§5).

"During a session, we aim to set the bounds of all successful queries
to the same constant, which we arbitrarily set to a number N.  Each
pointer will have an 'unknown' weight, initialized to N+1 (which will
be larger than a known solution that has a bound N).  [...] If the
longest chain in a search tree is A arcs, we code 'infinity' as A*N."

Weights are keyed by :class:`~repro.ortree.tree.ArcKey` — the database
pointers of figure 4.  Builtin arcs are deterministic decisions and
carry weight 0 (probability 1 → -log2(1) = 0).

A weight is in one of three states:

* ``UNKNOWN``  — never informed; numeric value N+1;
* ``KNOWN``    — set by a successful search; numeric value stored;
* ``INFINITE`` — set by a failed search; numeric value A·N.

A session's store is a :class:`SessionStore`: an overlay that holds
only the session's writes (§5's "separate buffer"), reads the rest
through, and gets a before-image of each entry its base changes while
it is open.  What it wrote is a :class:`StoreDelta`, as are a merge and
a lane mirror's catch-up.
"""

from __future__ import annotations

import enum
import weakref
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from ..ortree.tree import ArcKey, OrArc

__all__ = ["WeightState", "WeightEntry", "StoreDelta", "WeightStore", "SessionStore"]


class WeightState(enum.Enum):
    UNKNOWN = "unknown"
    KNOWN = "known"
    INFINITE = "infinite"


@dataclass(frozen=True, slots=True)
class WeightEntry:
    state: WeightState
    value: float


@dataclass(frozen=True, slots=True)
class StoreDelta:
    """Entries one store writes into another, as of ``generation``.

    ``entries`` maps each written key to its entry; an UNKNOWN entry is
    a tombstone (the key was dropped by ``forget`` / ``clear``).  A
    session's delta and a merge are the writes after generation
    ``base``; a lane sync has None (its mirror's is not tracked).
    """

    base: Optional[int]
    generation: int
    entries: dict[ArcKey, WeightEntry]


#: the entry every builtin key reads: probability 1, weight 0
_BUILTIN_ENTRY = WeightEntry(WeightState.KNOWN, 0.0)


class WeightStore:
    """Pointer-weight database (the figure-4 weights, logically).

    Parameters
    ----------
    n:
        The target bound N every successful chain should sum to.
    a:
        The longest chain length A; infinity encodes as ``a * n``.
    """

    def __init__(self, n: float = 16.0, a: int = 16):
        if n <= 0:
            raise ValueError("N must be positive")
        if a < 2:
            raise ValueError("A must be at least 2 for A*N > N+1 to hold")
        self.n = float(n)
        self.a = int(a)
        self._entries: dict[ArcKey, WeightEntry] = {}
        #: the entry every absent non-builtin key reads, shared by all of
        #: them (N is fixed for the store's life)
        self._unknown = WeightEntry(WeightState.UNKNOWN, self.unknown_value)
        #: Monotonic mutation counter.  Every write that actually changes
        #: the store (set_known / set_infinite / forget / clear) bumps it,
        #: so callers — notably the serving layer's answer cache — can
        #: detect "weights moved" (e.g. after a session merge) with an
        #: integer compare instead of deep-comparing entries.
        self.generation: int = 0
        #: the sessions open on this store; each gets the before-image of
        #: an entry about to change
        self._sessions: weakref.WeakSet[SessionStore] = weakref.WeakSet()

    # -- encodings ---------------------------------------------------------
    @property
    def unknown_value(self) -> float:
        return self.n + 1.0

    @property
    def infinity_value(self) -> float:
        return self.a * self.n

    # -- reads ----------------------------------------------------------------
    def entry(self, key: ArcKey) -> WeightEntry:
        """The entry for ``key``; builtins are KNOWN 0, else UNKNOWN N+1."""
        e = self._entries.get(key)
        if e is not None:
            return e
        return _BUILTIN_ENTRY if key.kind == "builtin" else self._unknown

    def weight(self, key: ArcKey) -> float:
        """Numeric weight used for bounds (the ``weight_fn`` hook)."""
        e = self._entries.get(key)
        if e is not None:
            return e.value
        return (_BUILTIN_ENTRY if key.kind == "builtin" else self._unknown).value

    def state(self, key: ArcKey) -> WeightState:
        return self.entry(key).state

    def is_known(self, key: ArcKey) -> bool:
        return self.state(key) is WeightState.KNOWN

    def is_infinite(self, key: ArcKey) -> bool:
        return self.state(key) is WeightState.INFINITE

    def is_unknown(self, key: ArcKey) -> bool:
        return self.state(key) is WeightState.UNKNOWN

    @staticmethod
    def chain_keys(arcs: Sequence[OrArc]) -> list[ArcKey]:
        """The keys the §5 rules update on a chain: its distinct
        non-builtin arc keys in chain order (root→leaf)."""
        out: list[ArcKey] = []
        seen: set[ArcKey] = set()
        for arc in arcs:
            if arc.key.kind == "builtin":
                continue
            if arc.key not in seen:
                seen.add(arc.key)
                out.append(arc.key)
        return out

    def keys(self) -> Iterator[ArcKey]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: ArcKey) -> bool:
        return key in self._entries

    # -- writes -------------------------------------------------------------------
    def set_known(self, key: ArcKey, value: float) -> None:
        """Record a known (successful-search) weight; clamped at >= 0."""
        if key.kind == "builtin":
            return  # builtins stay at probability 1
        self._set(key, WeightEntry(WeightState.KNOWN, max(0.0, float(value))))
        self.generation += 1

    def set_infinite(self, key: ArcKey) -> None:
        """Record a failure weight (A·N encoding)."""
        if key.kind == "builtin":
            return
        self._set(key, WeightEntry(WeightState.INFINITE, self.infinity_value))
        self.generation += 1

    def forget(self, key: ArcKey) -> None:
        """Drop a key back to UNKNOWN."""
        if key in self:
            self._set(key, self._unknown)
            self.generation += 1

    def clear(self) -> None:
        dropped = list(self.keys())
        for key in dropped:
            self._set(key, self._unknown)
        if dropped:
            self.generation += 1

    def apply_delta(self, delta: StoreDelta) -> int:
        """Write another store's ``delta`` into this one in place.

        Entries are written directly (tombstones delete) and the
        generation jumps to the delta's.  Returns how many entries were
        applied.
        """
        for key, entry in delta.entries.items():
            self._set(key, entry)
        self.generation = delta.generation
        return len(delta.entries)

    def _set(self, key: ArcKey, entry: WeightEntry) -> None:
        """Write one entry (a tombstone drops the key), after giving its
        before-image to each session open on this store."""
        for session in self._sessions:
            session._hold(key, self._entries.get(key))
        if entry.state is WeightState.UNKNOWN:
            self._entries.pop(key, None)
        else:
            self._entries[key] = entry

    # -- copies / views -----------------------------------------------------------
    def copy(self) -> "WeightStore":
        """Independent copy, starting at this store's generation; the two
        counters then evolve independently."""
        out = WeightStore(self.n, self.a)
        out._entries = self.snapshot()
        out.generation = self.generation
        return out

    def snapshot(self) -> dict[ArcKey, WeightEntry]:
        return dict(self._entries)

    def weight_fn(self):
        """A callable suitable as :class:`OrTree`'s ``weight_fn``."""
        return self.weight

    def __repr__(self) -> str:
        entries = self.snapshot().values()
        known = sum(1 for e in entries if e.state is WeightState.KNOWN)
        inf = sum(1 for e in entries if e.state is WeightState.INFINITE)
        return f"WeightStore(N={self.n:g}, A={self.a}, known={known}, infinite={inf})"


class SessionStore(WeightStore):
    """A session's local store (§5): an overlay on the store ``base``.

    Opening one copies nothing: the session's writes land in its own
    entries (``forget`` / ``clear`` as UNKNOWN tombstones) and any other
    key reads through, at one dict lookup more than a plain store.
    Until :meth:`close`, a write to ``base`` first saves here the entry
    it replaces, unless the session has its own, so the session reads
    ``base`` as it was at open plus its own writes.
    """

    def __init__(self, base: WeightStore):
        if isinstance(base, SessionStore):
            raise TypeError("a session opens on a plain store, not on another session")
        super().__init__(base.n, base.a)
        self.base = base
        self._base_entries = base._entries
        self._opened_at = self.generation = base.generation
        #: what the session wrote, in first-write order
        self._writes: dict[ArcKey, WeightEntry] = {}
        base._sessions.add(self)

    def close(self) -> None:
        """Stop tracking the base: later writes to it show through."""
        self.base._sessions.discard(self)

    def delta(self) -> StoreDelta:
        """The session's writes since it opened, in first-write order."""
        return StoreDelta(self._opened_at, self.generation, dict(self._writes))

    def entry(self, key: ArcKey) -> WeightEntry:
        e = self._entries.get(key) or self._base_entries.get(key)
        if e is None:
            return _BUILTIN_ENTRY if key.kind == "builtin" else self._unknown
        return e

    def weight(self, key: ArcKey) -> float:
        e = self._entries.get(key) or self._base_entries.get(key)
        if e is None:
            return (_BUILTIN_ENTRY if key.kind == "builtin" else self._unknown).value
        return e.value

    def keys(self) -> Iterator[ArcKey]:
        own = self._entries
        yield from (key for key in self._base_entries if key not in own)
        yield from (key for key, e in own.items() if e.state is not WeightState.UNKNOWN)

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def __contains__(self, key: ArcKey) -> bool:
        e = self._entries.get(key)
        return key in self._base_entries if e is None else e.state is not WeightState.UNKNOWN

    def snapshot(self) -> dict[ArcKey, WeightEntry]:
        return {key: self.entry(key) for key in self.keys()}

    def _set(self, key: ArcKey, entry: WeightEntry) -> None:
        self._entries[key] = self._writes[key] = entry

    def _hold(self, key: ArcKey, before: Optional[WeightEntry]) -> None:
        """Keep the base's entry for ``key`` as it was before a write to
        the base (None: absent), unless this session has one already."""
        self._entries.setdefault(key, self._unknown if before is None else before)
