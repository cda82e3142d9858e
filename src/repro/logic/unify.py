"""Unification with trailed bindings.

Resolution in the OR-tree (paper section 2: "A match is found wherever
this graph can be embedded as a subgraph in the data base or in the left
side of a rule") is implemented the standard way: Robinson unification
of the goal against clause heads.  The binding store keeps a **trail**
so the depth-first baseline can backtrack cheaply, and supports
**snapshot/undo** so the OR-tree expander can explore alternatives from
one node.

The paper's section 6 notes that structure sharing is hard to do in
parallel; our OR-tree layer therefore *reifies* bindings per node by
applying the substitution (``resolve``), trading copying for
independence — exactly the copy traffic the multiply-write memory of
section 6 is designed to absorb (modeled in
:mod:`repro.machine.memory`).

Terms are immutable, so what no binding touched need not be copied:
``resolve`` returns a ground term, or any term none of whose variables
is bound, as the *same object*, and rebuilds a structure only along the
paths that lead to a bound variable.  ``rename_apart`` likewise returns
ground terms as they are, so facts are never copied.  Ground structure
is shared between the resolvents of independent chains, which is safe
because nothing can write into it.
"""

from __future__ import annotations

from operator import is_not
from typing import Iterable, Optional

from .terms import Atom, Int, Struct, Term, Var, fresh_var

__all__ = [
    "Bindings",
    "UnifyStats",
    "unify",
    "rename_apart",
    "occurs_in",
]


class UnifyStats:
    """Counters for unification work (used by engine statistics)."""

    __slots__ = ("attempts", "successes", "bind_ops", "deref_ops")

    def __init__(self) -> None:
        self.attempts = 0
        self.successes = 0
        self.bind_ops = 0
        self.deref_ops = 0

    def reset(self) -> None:
        self.attempts = 0
        self.successes = 0
        self.bind_ops = 0
        self.deref_ops = 0


class Bindings:
    """A mutable substitution with a trail for backtracking.

    ``walk`` dereferences a term one level; ``resolve`` applies the
    substitution fully.  ``mark``/``undo_to`` implement the trail.
    """

    __slots__ = ("map", "trail", "stats")

    def __init__(self, stats: Optional[UnifyStats] = None):
        self.map: dict[int, Term] = {}
        self.trail: list[int] = []
        self.stats = stats

    def __len__(self) -> int:
        return len(self.map)

    def __contains__(self, var: Var) -> bool:
        return var.id in self.map

    def bind(self, var: Var, term: Term) -> None:
        """Record ``var := term`` on the trail."""
        if var.id in self.map:
            raise ValueError(f"variable {var} already bound")
        self.map[var.id] = term
        self.trail.append(var.id)
        if self.stats is not None:
            self.stats.bind_ops += 1

    def mark(self) -> int:
        """Snapshot the trail position."""
        return len(self.trail)

    def undo_to(self, mark: int) -> None:
        """Pop bindings recorded after ``mark``."""
        while len(self.trail) > mark:
            vid = self.trail.pop()
            del self.map[vid]

    def walk(self, term: Term) -> Term:
        """Dereference ``term`` through bound variables (shallow)."""
        while isinstance(term, Var):
            if self.stats is not None:
                self.stats.deref_ops += 1
            nxt = self.map.get(term.id)
            if nxt is None:
                return term
            term = nxt
        return term

    def resolve(self, term: Term) -> Term:
        """Apply the substitution fully.

        A structure is rebuilt only when one of its arguments changed;
        a ground term, or one whose variables are all unbound, comes
        back as the same object.
        """
        return _resolve(term, self.map, self.stats)

    def resolve_all(self, terms: Iterable[Term]) -> tuple[Term, ...]:
        return tuple(self.resolve(t) for t in terms)

    def copy(self) -> "Bindings":
        """An independent copy (map copied, trail restarted)."""
        out = Bindings(self.stats)
        out.map = dict(self.map)
        return out

    def as_dict(self) -> dict[int, Term]:
        """Resolved view keyed by variable id."""
        return {vid: self.resolve(t) for vid, t in self.map.items()}


def _resolve(term: Term, bmap: dict[int, Term], stats: Optional[UnifyStats]) -> Term:
    while isinstance(term, Var):
        if stats is not None:
            stats.deref_ops += 1
        nxt = bmap.get(term.id)
        if nxt is None:
            return term
        term = nxt
    if term.ground or not isinstance(term, Struct):
        return term
    args = term.args
    new_args = [a if a.ground else _resolve(a, bmap, stats) for a in args]
    if any(map(is_not, args, new_args)):
        return Struct(term.functor, new_args)
    return term


def occurs_in(var: Var, term: Term, bindings: Bindings) -> bool:
    """Occurs check: does ``var`` occur in ``term`` under ``bindings``?"""
    term = bindings.walk(term)
    if isinstance(term, Var):
        return term.id == var.id
    if isinstance(term, Struct):
        return any(occurs_in(var, a, bindings) for a in term.args)
    return False


def unify(a: Term, b: Term, bindings: Bindings, occurs_check: bool = False) -> bool:
    """Unify ``a`` and ``b`` destructively in ``bindings``.

    Returns True on success.  On failure the *caller* is responsible for
    undoing via the trail mark taken before the call (partial bindings
    may remain otherwise) — the engine always brackets unify with
    ``mark``/``undo_to``.
    """
    if bindings.stats is not None:
        bindings.stats.attempts += 1
    ok = _unify(a, b, bindings, occurs_check)
    if ok and bindings.stats is not None:
        bindings.stats.successes += 1
    return ok


def _unify(a: Term, b: Term, bindings: Bindings, occurs_check: bool) -> bool:
    stack: list[tuple[Term, Term]] = [(a, b)]
    while stack:
        x, y = stack.pop()
        x = bindings.walk(x)
        y = bindings.walk(y)
        if x is y:
            continue
        if isinstance(x, Var):
            if isinstance(y, Var) and y.id == x.id:
                continue
            if occurs_check and occurs_in(x, y, bindings):
                return False
            bindings.bind(x, y)
            continue
        if isinstance(y, Var):
            if occurs_check and occurs_in(y, x, bindings):
                return False
            bindings.bind(y, x)
            continue
        if isinstance(x, Atom) and isinstance(y, Atom):
            if x.name != y.name:
                return False
            continue
        if isinstance(x, Int) and isinstance(y, Int):
            if x.value != y.value:
                return False
            continue
        if isinstance(x, Struct) and isinstance(y, Struct):
            if x.functor != y.functor or x.arity != y.arity:
                return False
            stack.extend(zip(x.args, y.args))
            continue
        return False
    return True


def rename_apart(term: Term, mapping: Optional[dict[int, Var]] = None) -> Term:
    """Return ``term`` with every variable replaced by a fresh one.

    A shared ``mapping`` lets several terms (e.g. a clause head and its
    body goals) be renamed consistently.  Ground subterms are returned
    as they are.
    """
    if term.ground:
        return term
    if mapping is None:
        mapping = {}

    def go(t: Term) -> Term:
        if isinstance(t, Var):
            nv = mapping.get(t.id)
            if nv is None:
                nv = fresh_var(t.name)
                mapping[t.id] = nv
            return nv
        if isinstance(t, Struct) and not t.ground:
            return Struct(t.functor, tuple(go(a) for a in t.args))
        return t

    return go(term)
