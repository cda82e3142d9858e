"""The answer cache: keyed by canonical query, guarded by weight
generations.

Cache entries are keyed by ``(program, canonical query, max_solutions)``
where the canonical form renames variables to a fixed sequence shared
across the conjunction — ``gf(sam, G)`` and ``gf(sam, Who)`` are the
same cache line.

Correctness rule: an entry is only served while the program's global
weight store is at the generation the entry was filled under.  An
end-of-session merge mutates the store and bumps
:attr:`~repro.weights.store.WeightStore.generation`, so every cached
answer computed under the old weights becomes unservable at once — no
deep store comparison, one integer compare per lookup (the bounds that
ordered those answers are stale even though B-LOG's answer *sets* are
complete under any weights).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence, Union

from ..logic.terms import NIL, Struct, Term, Var

if TYPE_CHECKING:
    from .telemetry import MetricsRegistry

__all__ = [
    "canonical_query",
    "canonical_query_text",
    "cache_key",
    "slot_names",
    "CanonicalForm",
    "AnswerCache",
    "CacheEntry",
]


def canonical_query(goals: Sequence[Term]) -> tuple[str, tuple[str, ...]]:
    """Canonicalize a conjunction: ``(text, original variable names)``.

    Variables are renamed ``_C1, _C2, ...`` in order of first
    appearance — one mapping shared across all goals, so variable
    sharing between goals is preserved.  The returned names are the
    query's own variable names in slot order (``"_"`` for anonymous
    ones); they let the serving layer store cached answers under
    canonical slots and re-key them to whatever names the *next* asker
    used.
    """
    slots: dict[int, str] = {}
    names: list[str] = []
    out: list[str] = []
    # the text str() gives the renamed conjunction, written from an
    # explicit stack of terms and text still to write: a long list or
    # a deep term costs no recursion
    todo: list[Union[Term, str]] = []
    for g in reversed(goals):
        todo += (g, ", ")
    del todo[-1:]
    while todo:
        t = todo.pop()
        if isinstance(t, str):
            out.append(t)
        elif isinstance(t, Var):
            slot = slots.get(t.id)
            if slot is None:
                names.append(t.name)
                slot = slots[t.id] = f"_C{len(names)}"
            out.append(slot)
        elif not isinstance(t, Struct):
            out.append(str(t))
        else:
            parts: list[Union[Term, str]] = []
            if t.functor == "." and len(t.args) == 2:  # [a, b] or [a, b|T]
                out.append("[")
                while isinstance(t, Struct) and t.functor == "." and len(t.args) == 2:
                    parts += (t.args[0], ", ")
                    t = t.args[1]
                parts[-1:] = ["]"] if t == NIL else ["|", t, "]"]
            else:
                out.append(f"{t.functor}(")
                for a in t.args:
                    parts += (a, ", ")
                parts[-1] = ")"
            todo += reversed(parts)
    return "".join(out), tuple(names)


def canonical_query_text(goals: Sequence[Term]) -> str:
    """Just the canonical conjunction text (variable names erased)."""
    return canonical_query(goals)[0]


def slot_names(names: Sequence[str]) -> dict[str, str]:
    """``{original name: canonical slot}`` for the *named* variables."""
    return {n: f"_C{i + 1}" for i, n in enumerate(names) if n != "_"}


def cache_key(
    program: str, goals: Sequence[Term], max_solutions: Optional[int]
) -> tuple:
    """The cache line identity of a query.

    Besides program and canonical text, the key carries the anonymity
    mask of the variable slots: ``gf(sam, G)`` and ``gf(sam, _)`` have
    the same canonical text but report different bindings, so they must
    not share a line.
    """
    return CanonicalForm.of(goals).key(program, max_solutions)


@dataclass(frozen=True, slots=True)
class CanonicalForm:
    """What serving a query from the cache needs of its text: the
    canonical conjunction text and the anonymity mask of its slots (the
    text's share of the cache key), and ``{slot: the query's own
    variable name}`` for its named variables (to re-key answers)."""

    text: str
    mask: tuple[bool, ...]
    names: dict[str, str]

    @classmethod
    def of(cls, goals: Sequence[Term]) -> "CanonicalForm":
        text, names = canonical_query(goals)
        return cls(
            text,
            tuple(n == "_" for n in names),
            {slot: name for name, slot in slot_names(names).items()},
        )

    def key(self, program: str, max_solutions: Optional[int]) -> tuple:
        """The cache line identity (:func:`cache_key`) for ``program``."""
        return (program, self.text, self.mask, max_solutions)


@dataclass
class CacheEntry:
    generation: int  # global-store generation the answers were computed under
    answers: list[dict[str, str]]


class AnswerCache:
    """LRU answer cache with generation-checked lookups.  Its hit, miss
    and stale counts live only in the registry's series."""

    def __init__(self, capacity: int, registry: "MetricsRegistry"):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = int(capacity)
        self._entries: "OrderedDict[tuple, CacheEntry]" = OrderedDict()
        self._m_hits = registry.counter("blog_cache_hits_total")
        self._m_misses = registry.counter("blog_cache_misses_total")
        #: misses caused specifically by a generation bump
        self._m_stale = registry.counter("blog_cache_stale_total")
        self._m_entries = registry.gauge("blog_cache_entries")

    @property
    def hits(self) -> int:
        return int(self._m_hits.value)

    @property
    def misses(self) -> int:
        return int(self._m_misses.value)

    @property
    def stale(self) -> int:
        return int(self._m_stale.value)

    def get(self, key: tuple, generation: int) -> Optional[list[dict[str, str]]]:
        """The cached answers, or None; stale entries are evicted."""
        entry = self._entries.get(key)
        if entry is None:
            self._m_misses.inc()
            return None
        if entry.generation != generation:
            del self._entries[key]
            self._m_misses.inc()
            self._m_stale.inc()
            self._m_entries.set(len(self._entries))
            return None
        self._entries.move_to_end(key)
        self._m_hits.inc()
        return entry.answers

    def put(self, key: tuple, generation: int, answers: list[dict[str, str]]) -> None:
        self._entries[key] = CacheEntry(generation, list(answers))
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
        self._m_entries.set(len(self._entries))

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict:
        hits, misses = self.hits, self.misses
        lookups = hits + misses
        return {
            "entries": len(self._entries),
            "hits": hits,
            "misses": misses,
            "stale": self.stale,
            "hit_rate": hits / lookups if lookups else 0.0,
        }
