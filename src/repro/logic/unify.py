"""Unification with trailed bindings.

Resolution in the OR-tree (paper section 2: "A match is found wherever
this graph can be embedded as a subgraph in the data base or in the left
side of a rule") is implemented the standard way: Robinson unification
of the goal against clause heads.  The binding store keeps a **trail**
so the depth-first baseline can backtrack cheaply, and supports
**snapshot/undo** so the OR-tree expander can explore alternatives from
one node.

The paper's section 6 notes that structure sharing is hard to do in
parallel and prices each OR-tree chain as an independent copy (the
traffic the multiply-write memory absorbs, modeled in
:mod:`repro.machine.memory`).  The OR-tree keeps chains independent
without building that copy: each open node owns a flat ``Bindings``
environment, and ``resolve`` applies it on demand, to the goal the
search selects and to a solution's answer.

Terms are immutable, so what no binding touched need not be copied:
``resolve`` returns a ground term, or any term none of whose variables
is bound, as the *same object*, and rebuilds a structure only along the
paths that lead to a bound variable.  ``rename_apart`` likewise returns
ground terms as they are, so facts are never copied.  Ground structure
is shared between the resolvents of independent chains, which is safe
because nothing can write into it.

A clause is renamed through its :class:`ClauseTemplate`, compiled once:
head and body with each variable replaced by a numbered
:class:`~repro.logic.terms.Slot`.  The OR-tree unifies a goal against
the template head directly and builds the body only for a clause that
matched; :meth:`ClauseTemplate.rename` serves the rename-then-unify
callers.  Both take fresh ids in the order ``rename_apart`` would.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .terms import Atom, Int, Slot, Struct, Term, Var, fresh_var, take_ids

__all__ = [
    "Bindings",
    "ClauseTemplate",
    "UnifyStats",
    "unify",
    "rename_apart",
    "occurs_in",
]


class UnifyStats:
    """Counters for unification work (used by engine statistics)."""

    __slots__ = ("attempts", "successes", "bind_ops")

    def __init__(self) -> None:
        self.attempts = 0
        self.successes = 0
        self.bind_ops = 0

    def reset(self) -> None:
        self.attempts = 0
        self.successes = 0
        self.bind_ops = 0


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
        return _resolve(term, self.map)

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


def _resolve(term: Term, bmap: dict[int, Term]) -> Term:
    while isinstance(term, Var):
        nxt = bmap.get(term.id)
        if nxt is None:
            return term
        term = nxt
    if term.ground or not isinstance(term, Struct):
        return term
    args = term.args
    new_args = None
    for i, a in enumerate(args):
        if a.ground:
            continue
        r = _resolve(a, bmap)
        if r is not a:
            if new_args is None:
                new_args = list(args)
            new_args[i] = r
    if new_args is None:
        return term
    return Struct(term.functor, new_args)


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
    stats = bindings.stats
    if stats is None:
        return _unify(a, b, bindings, occurs_check)
    stats.attempts += 1
    mark = len(bindings.trail)
    ok = _unify(a, b, bindings, occurs_check)
    stats.bind_ops += len(bindings.trail) - mark
    if ok:
        stats.successes += 1
    return ok


def _unify(a: Term, b: Term, bindings: Bindings, occurs_check: bool) -> bool:
    bmap, trail = bindings.map, bindings.trail
    stack: list[tuple[Term, Term]] = [(a, b)]
    pop = stack.pop
    while stack:
        x, y = pop()
        while isinstance(x, Var):
            nxt = bmap.get(x.id)
            if nxt is None:
                break
            x = nxt
        while isinstance(y, Var):
            nxt = bmap.get(y.id)
            if nxt is None:
                break
            y = nxt
        if x is y:
            continue
        if isinstance(x, Var):
            if isinstance(y, Var) and y.id == x.id:
                continue
            if occurs_check and occurs_in(x, y, bindings):
                return False
            bmap[x.id] = y
            trail.append(x.id)
        elif isinstance(y, Var):
            if occurs_check and occurs_in(y, x, bindings):
                return False
            bmap[y.id] = x
            trail.append(y.id)
        elif isinstance(x, Struct):
            if (
                not isinstance(y, Struct)
                or x.functor != y.functor
                or len(x.args) != len(y.args)
            ):
                return False
            stack.extend(zip(x.args, y.args))
        elif isinstance(x, Atom):
            if not isinstance(y, Atom) or x.name != y.name:
                return False
        elif isinstance(x, Int):
            if not isinstance(y, Int) or x.value != y.value:
                return False
        else:
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


class ClauseTemplate:
    """A clause compiled for renaming: variables become numbered slots.

    ``slots`` lists the clause's distinct variables in first-occurrence
    order, head then body — the order in which ``rename_apart`` with a
    shared mapping allocates their fresh ids.
    """

    __slots__ = ("head", "body", "slots")

    def __init__(self, head: Term, body: tuple[Term, ...]):
        slots: dict[int, Slot] = {}

        def go(t: Term) -> Term:
            if isinstance(t, Var):
                slot = slots.get(t.id)
                if slot is None:
                    slot = slots[t.id] = Slot(t.name, len(slots))
                return slot
            if isinstance(t, Struct) and not t.ground:
                return Struct(t.functor, [go(a) for a in t.args])
            return t

        self.head = go(head)
        self.body = tuple(go(g) for g in body)
        self.slots = tuple(slots.values())

    def fill(self, bmap: dict) -> None:
        """Bind each slot ``bmap`` leaves unbound to a fresh variable.

        Every slot takes its fresh id, bound or not, so the id sequence
        is the one renaming the whole clause would take.
        """
        for slot, vid in zip(self.slots, take_ids(len(self.slots))):
            if slot.id not in bmap:
                bmap[slot.id] = Var(slot.name, vid)

    def rename(self) -> tuple[Term, tuple[Term, ...]]:
        """The clause renamed apart: fresh variables shared by head and body."""
        fresh = [Var(s.name, vid) for s, vid in zip(self.slots, take_ids(len(self.slots)))]
        return _instantiate(self.head, fresh), tuple(_instantiate(g, fresh) for g in self.body)


def _instantiate(t: Term, fresh: list[Var]) -> Term:
    """Template term ``t`` with slot ``i`` replaced by ``fresh[i]``."""
    if isinstance(t, Struct):
        if t.ground:
            return t
        return Struct(t.functor, [_instantiate(a, fresh) for a in t.args])
    if isinstance(t, Slot):
        return fresh[t.index]
    return t
