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

What a store changed after some generation is a :class:`StoreDelta`
(the §5 "separate buffer" of a session's updates): the serving layer
ships it to lane mirrors and back, merges it, and journals it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator, Optional

from ..ortree.tree import ArcKey

__all__ = ["WeightState", "WeightEntry", "StoreDelta", "WeightStore"]


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
    """What a store changed after generation ``base``.

    ``entries`` maps every key written after ``base`` to its entry at
    ``generation``, in journal order; an UNKNOWN entry is a tombstone
    (the key was dropped by ``forget`` / ``clear``).  ``base=None`` is
    the full entry set, for a reader that has no mirror yet.
    """

    base: Optional[int]
    generation: int
    entries: dict[ArcKey, WeightEntry]


#: the entry every builtin key reads: probability 1, weight 0
_BUILTIN_ENTRY = WeightEntry(WeightState.KNOWN, 0.0)

#: a journal value's low bits hold the key's rank
_RANK_BITS = 32
_RANK_MASK = (1 << _RANK_BITS) - 1


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
        #: Per-key journal: the generation at which each key was last
        #: written (including drops back to UNKNOWN, which stay in the
        #: journal as tombstones).  This is what lets a reader ask "what
        #: changed since generation G?" — the basis of the serving
        #: layer's delta shipping to process lanes and of touched-keys
        #: session merges.  A write moves its key to the end, so the
        #: journal is in generation order and a reader scans only the
        #: writes after its generation, from the newest end.  Each value
        #: packs that generation with the key's *rank*, the order of its
        #: first write, in which a delta lists its entries:
        #: ``generation << _RANK_BITS | rank``.
        self._modified: dict[ArcKey, int] = {}
        self._ranks = 0  # keys ever written: the next rank

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
        self._entries[key] = WeightEntry(WeightState.KNOWN, max(0.0, float(value)))
        self.generation += 1
        self._journal(key, self.generation)

    def set_infinite(self, key: ArcKey) -> None:
        """Record a failure weight (A·N encoding)."""
        if key.kind == "builtin":
            return
        self._entries[key] = WeightEntry(WeightState.INFINITE, self.infinity_value)
        self.generation += 1
        self._journal(key, self.generation)

    def forget(self, key: ArcKey) -> None:
        """Drop a key back to UNKNOWN."""
        if self._entries.pop(key, None) is not None:
            self.generation += 1
            self._journal(key, self.generation)

    def clear(self) -> None:
        if self._entries:
            self.generation += 1
            for key in self._entries:
                self._journal(key, self.generation)
        self._entries.clear()

    def _journal(self, key: ArcKey, generation: int) -> None:
        """Record that ``key`` was written at ``generation``."""
        modified = self._modified
        packed = modified.pop(key, None)
        if packed is None:
            rank = self._ranks
            self._ranks += 1
        else:
            rank = packed & _RANK_MASK
        newest = next(reversed(modified.values()), 0) >> _RANK_BITS
        modified[key] = generation << _RANK_BITS | rank
        if generation < newest:
            # a write below the newest one, possible only after an older
            # delta moved the generation back: restore generation order
            self._modified = dict(sorted(modified.items(), key=itemgetter(1)))

    # -- change tracking ----------------------------------------------------
    def delta_since(self, generation: Optional[int]) -> StoreDelta:
        """The :class:`StoreDelta` of writes strictly after ``generation``
        (the whole store for ``None``).

        Keys dropped back to UNKNOWN (``forget`` / ``clear``) come as
        tombstones: a reader that mirrors this store needs the drop as
        much as it needs a new value.  The cost is that of the keys
        written after ``generation``, whatever the journal's size.
        """
        if generation is None:
            entries = dict(self._entries)
        else:
            limit = (generation + 1) << _RANK_BITS
            changed = []
            for key, packed in reversed(self._modified.items()):
                if packed < limit:
                    break
                changed.append((packed & _RANK_MASK, key))
            changed.sort(key=itemgetter(0))
            entries = {k: self.entry(k) for _, k in changed}
        return StoreDelta(generation, self.generation, entries)

    def apply_delta(self, delta: StoreDelta) -> int:
        """Catch a mirror up with another store's ``delta`` in place.

        Entries are written directly (tombstones delete) and the
        generation jumps to the delta's, so a later
        ``source.delta_since(mirror.generation)`` holds exactly what the
        mirror still misses.  Returns how many entries were applied.
        """
        for key, entry in delta.entries.items():
            if entry.state is WeightState.UNKNOWN:
                self._entries.pop(key, None)
            else:
                self._entries[key] = entry
            self._journal(key, delta.generation)
        self.generation = delta.generation
        return len(delta.entries)

    # -- copies / views -----------------------------------------------------------
    def copy(self) -> "WeightStore":
        """Independent copy (the session-local store of §5).

        The copy starts at the parent's generation and counts its own
        mutations from there; the two counters evolve independently.
        """
        out = WeightStore(self.n, self.a)
        out._entries = dict(self._entries)
        out.generation = self.generation
        out._modified = dict(self._modified)
        out._ranks = self._ranks
        return out

    def snapshot(self) -> dict[ArcKey, WeightEntry]:
        return dict(self._entries)

    def weight_fn(self):
        """A callable suitable as :class:`OrTree`'s ``weight_fn``."""
        return self.weight

    def __repr__(self) -> str:
        known = sum(1 for e in self._entries.values() if e.state is WeightState.KNOWN)
        inf = sum(1 for e in self._entries.values() if e.state is WeightState.INFINITE)
        return f"WeightStore(N={self.n:g}, A={self.a}, known={known}, infinite={inf})"
