"""The knowledge base: an indexed store of Horn clauses.

Section 5 of the paper stores the database "as a linked list data
structure, with blocks representing each Horn clause (rule or fact), and
pointers to blocks representing other rules or facts in the database
that can resolve the rule".  This module is the *logical* view of that
store: clauses indexed by predicate indicator and (optionally) first
argument.  The *physical* linked-list/weighted-pointer view lives in
:mod:`repro.linkdb` and is built from a :class:`Program`.

Every clause gets a stable integer id; the weight scheme
(:mod:`repro.weights`) keys pointer weights by ``(caller context,
clause id)``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Iterator, Optional

from .parser import Clause, parse_program
from .terms import Atom, Int, Struct, Term, Var

__all__ = ["Program", "IndexStats"]


class IndexStats:
    """Counters for clause retrieval (candidate filtering effectiveness)."""

    __slots__ = ("lookups", "candidates", "first_arg_hits")

    def __init__(self) -> None:
        self.lookups = 0
        self.candidates = 0
        self.first_arg_hits = 0


def _first_arg_key(term: Term) -> Optional[tuple]:
    """Index key of a callable term's first argument, or None if a var."""
    if not isinstance(term, Struct):
        return None
    a0 = term.args[0]
    if isinstance(a0, Atom):
        return ("atom", a0.name)
    if isinstance(a0, Int):
        return ("int", a0.value)
    if isinstance(a0, Struct):
        return ("struct", a0.functor, a0.arity)
    return None  # variable: matches everything


class Program:
    """An ordered, indexed collection of Horn clauses.

    Clause order matters (Prolog semantics for the depth-first
    baseline); first-argument indexing only *filters* candidates, never
    reorders them.
    """

    def __init__(self, clauses: Iterable[Clause] = ()):
        self._clauses: list[Clause] = []
        self._alive: list[bool] = []
        self._retracted = False
        self._by_pred: dict[tuple[str, int], list[int]] = defaultdict(list)
        # per indicator: the variable-first-argument clauses, and per key
        # the keyed clauses merged with them, each list in source order
        self._var_first: dict[tuple[str, int], list[int]] = defaultdict(list)
        self._keyed: dict[tuple[str, int], dict[tuple, list[int]]] = defaultdict(dict)
        self.stats = IndexStats()
        for c in clauses:
            self.add(c)

    # -- construction ------------------------------------------------------
    @classmethod
    def from_source(cls, src: str) -> "Program":
        """Build a program from Edinburgh-syntax source text."""
        return cls(parse_program(src))

    def add(self, clause: Clause) -> int:
        """Append ``clause``; returns its stable clause id."""
        cid = len(self._clauses)
        self._clauses.append(clause)
        self._alive.append(True)
        ind = clause.indicator
        self._by_pred[ind].append(cid)
        key = _first_arg_key(clause.head)
        keyed = self._keyed[ind]
        if key is None:
            self._var_first[ind].append(cid)
            for bucket in keyed.values():
                bucket.append(cid)
        elif key in keyed:
            keyed[key].append(cid)
        else:
            keyed[key] = [*self._var_first.get(ind, ()), cid]
        return cid

    def add_source(self, src: str) -> list[int]:
        """Parse and add clauses from source; returns their ids."""
        return [self.add(c) for c in parse_program(src)]

    def retract(self, cid: int) -> None:
        """Logically remove clause ``cid`` (ids stay stable)."""
        self._alive[cid] = False
        self._retracted = True

    # -- access -------------------------------------------------------------
    def __len__(self) -> int:
        return sum(self._alive)

    def __iter__(self) -> Iterator[Clause]:
        for cid, c in enumerate(self._clauses):
            if self._alive[cid]:
                yield c

    def clause(self, cid: int) -> Clause:
        return self._clauses[cid]

    def clause_ids(self) -> list[int]:
        return [cid for cid in range(len(self._clauses)) if self._alive[cid]]

    @property
    def predicates(self) -> list[tuple[str, int]]:
        """All predicate indicators with at least one live clause."""
        return [
            ind
            for ind, cids in self._by_pred.items()
            if any(self._alive[c] for c in cids)
        ]

    def _live(self, bucket: list[int]) -> list[int]:
        if self._retracted:
            return [c for c in bucket if self._alive[c]]
        return bucket[:]

    def clauses_for(self, indicator: tuple[str, int]) -> list[int]:
        """Ids of live clauses whose head matches ``indicator``, in order."""
        return self._live(self._by_pred.get(indicator, []))

    def candidates(self, goal: Term) -> list[int]:
        """Ids of clauses that might resolve ``goal`` (indexing filter).

        The goal's first argument must already be dereferenced by the
        caller for indexing to help; an unbound first argument falls
        back to the full predicate bucket.  A bound one selects the
        clauses with that key or a variable first argument, in source
        order, without looking at any other clause.
        """
        stats = self.stats
        stats.lookups += 1
        ind = goal.indicator
        key = _first_arg_key(goal)
        if key is None:
            out = self.clauses_for(ind)
        else:
            stats.first_arg_hits += 1
            bucket = self._keyed.get(ind, {}).get(key)
            out = self._live(self._var_first.get(ind, []) if bucket is None else bucket)
        stats.candidates += len(out)
        return out

    # -- introspection ------------------------------------------------------
    def facts(self) -> list[Clause]:
        return [c for c in self if c.is_fact]

    def rules(self) -> list[Clause]:
        return [c for c in self if not c.is_fact]

    def listing(self) -> str:
        """Source listing of all live clauses."""
        return "\n".join(str(c) for c in self)

    def __repr__(self) -> str:
        return f"Program({len(self)} clauses, {len(self.predicates)} predicates)"
