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
:class:`~repro.logic.terms.Slot`.  As the WAM compiles a head into get
and unify instructions and a body into put instructions, each template
runs code generated for its clause's shape: ``match`` is :func:`unify`
of a goal against the head, unrolled on the head's known structure
(same order, same bindings), and ``build`` constructs the body from the
values of its slots, each resolved once.  The OR-tree matches a goal
against the template and builds the body only for a clause that
matched; :meth:`ClauseTemplate.rename` serves the rename-then-unify
callers.  Both take fresh ids in the order ``rename_apart`` would.
Generated code is shared by every clause of one shape and holds no
constant: functors, atoms and integers are passed to it as data.
"""

from __future__ import annotations

import threading
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

    :meth:`match`, :meth:`values` and :meth:`build` run code generated
    for the clause's *shape*: its head and body with every functor, atom, integer and
    ground subterm taken out as data (``consts``).  Clauses of one shape,
    such as the facts of one predicate, share one :class:`_Kernel`, and
    the generated source never holds a constant, whatever characters its
    name has.  A template pickles as its head and body, without the
    kernel, and is compiled again where it is loaded.
    """

    __slots__ = ("head", "body", "slots", "consts", "kernel")

    def __init__(self, head: Term, body: tuple[Term, ...]):
        slots: dict[int, Slot] = {}
        self.head = _slotted(head, slots)
        self.body = tuple(_slotted(g, slots) for g in body)
        self.slots = tuple(slots.values())
        consts: list = []
        head_key = _head_key(self.head, consts, True)
        for slot in self.slots:
            consts += (slot, slot.id)
        body_key = tuple(_body_key(g, consts) for g in self.body)
        key = (head_key, body_key, len(self.slots))
        kernel = _KERNELS.get(key)
        if kernel is None:
            kernel = _compiled(key)
        self.consts = tuple(consts)
        self.kernel = kernel

    def __reduce__(self):
        # the kernel is generated code: compile again where loaded
        return (ClauseTemplate, (self.head, self.body))

    def match(self, goal: Term, bindings: Bindings) -> bool:
        """Unify ``goal`` with the head in ``bindings``.

        The same bindings, made in the same order, as
        ``unify(goal, self.head, bindings)``: right to left, each goal
        variable bound to the head's term, each slot to the goal's.
        ``bindings`` must not reach a slot of this template yet.
        """
        return self.kernel.match(goal, bindings, self)

    def values(self, bmap: dict) -> list:
        """After a match: :meth:`fill` ``bmap``, then the value of each
        slot the body uses, resolved once, by slot index (``None`` for a
        slot only the head uses)."""
        return self.kernel.values(bmap, self)

    def build(self, values: list) -> tuple[Term, ...]:
        """The body with each slot replaced by its entry in ``values``:
        equal to the body resolved through the bindings ``values`` came
        from."""
        return self.kernel.build(values, self)

    @property
    def counts(self) -> tuple[tuple[int, int], ...]:
        """``(slot index, occurrences in the body)`` of each slot the body
        uses, in slot order."""
        return self.kernel.counts

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


def _slotted(t: Term, slots: dict[int, Slot]) -> Term:
    """``t`` with each variable replaced by its slot, numbered in
    first-occurrence order."""
    if isinstance(t, Var):
        slot = slots.get(t.id)
        if slot is None:
            slot = slots[t.id] = Slot(t.name, len(slots))
        return slot
    if isinstance(t, Struct) and not t.ground:
        return Struct(t.functor, [_slotted(a, slots) for a in t.args])
    return t


def _instantiate(t: Term, fresh: list) -> Term:
    """Template term ``t`` with slot ``i`` replaced by ``fresh[i]``."""
    if isinstance(t, Struct):
        if t.ground:
            return t
        return Struct(t.functor, [_instantiate(a, fresh) for a in t.args])
    if isinstance(t, Slot):
        return fresh[t.index]
    return t


# -- clause kernels ------------------------------------------------------------------
#
# A shape key is a nested tuple: a slot is its index, a structure the
# tuple of its arguments' keys, and any other term a one-letter tag.  The
# constants a key stands for are appended to ``consts`` in pre-order:
# for the head, a functor (and, below the top, the structure itself, to
# bind a goal variable to), then an atom, integer or ground subterm as
# the term; then each slot and its id; then, for the body, each functor
# and each ground subterm.

#: head structures nested deeper than this are matched by ``_unify``
#: (generated code nests two blocks per level)
_MAX_NESTING = 32

#: the kernel of each shape key, oldest first; a template holds its own
#: kernel, so dropping the oldest shapes past the bound only stops them
#: being shared with templates compiled later
_KERNELS: dict[tuple, "_Kernel"] = {}
_MAX_KERNELS = 1024
_KERNELS_LOCK = threading.Lock()


def _compiled(key: tuple) -> "_Kernel":
    """The kernel of shape ``key``, compiled on first use."""
    with _KERNELS_LOCK:
        kernel = _KERNELS.get(key)
        if kernel is None:
            if len(_KERNELS) >= _MAX_KERNELS:
                del _KERNELS[next(iter(_KERNELS))]
            kernel = _KERNELS[key] = _Kernel(*key)
        return kernel


def _head_key(t: Term, consts: list, top: bool = False):
    if isinstance(t, Slot):
        return t.index
    if isinstance(t, Struct) and (top or not t.ground):
        consts.append(t.functor)
        if not top:
            consts.append(t)
        return tuple(_head_key(a, consts) for a in t.args)
    consts.append(t)
    if isinstance(t, Atom):
        return "a"
    return "i" if isinstance(t, Int) else "g"


def _body_key(t: Term, consts: list):
    if isinstance(t, Slot):
        return t.index
    if isinstance(t, Struct) and not t.ground:
        consts.append(t.functor)
        return tuple(_body_key(a, consts) for a in t.args)
    consts.append(t)
    return "c"


class _Kernel:
    """The generated functions of one clause shape.

    ``match(goal, bindings, template)`` is ``_unify(goal, head)`` unrolled
    on the head's structure; ``values(bmap, template)`` fills the slots
    and resolves the ones the body uses; ``build(values, template)``
    constructs the body.  ``counts`` is each body slot's static
    occurrence count.
    """

    __slots__ = ("match", "values", "build", "counts")

    def __init__(self, head_key, body_key: tuple, nslots: int):
        index = [0]  # the next constant's index

        def take() -> int:
            index[0] += 1
            return index[0] - 1

        def annotate(k, top: bool = False):
            if isinstance(k, int):
                return ("v", k)
            if isinstance(k, tuple):
                f = take()
                return ("s", f, None if top else take(), [annotate(a) for a in k])
            return (k, take())

        root = annotate(head_key, True)
        slot_base = index[0]
        index[0] += 2 * nslots
        counts: dict[int, int] = {}
        for k in body_key:
            _count_slots(k, counts)
        self.counts = tuple(sorted(counts.items()))
        namespace = {
            "Var": Var, "Atom": Atom, "Int": Int, "Struct": Struct,
            "_unify": _unify, "_resolve": _resolve, "take_ids": take_ids,
        }
        exec(_match_source(root, slot_base), namespace)
        exec(_values_source(nslots, slot_base, counts), namespace)
        exec(_build_source(body_key, take), namespace)
        self.match = namespace["match"]
        self.values = namespace["values"]
        self.build = namespace["build"]


def _count_slots(k, counts: dict[int, int]) -> None:
    if isinstance(k, int):
        counts[k] = counts.get(k, 0) + 1
    elif isinstance(k, tuple):
        for a in k:
            _count_slots(a, counts)


def _match_source(root: tuple, slot_base: int) -> str:
    lines = [
        "def match(g, b, t):",
        "    c = t.consts",
        "    bmap = b.map",
        "    trail = b.trail",
        "    x = g",
    ]
    seen: set[int] = set()
    out = lines.append

    def mark(node: tuple) -> None:
        if node[0] == "v":
            seen.add(node[1])
        elif node[0] == "s":
            for a in node[3]:
                mark(a)

    def deref_or_bind(ind: str, target: str) -> None:
        # dereference x; an unbound variable is bound to ``target`` and
        # the else-block, written next, runs for any other term
        out(f"{ind}while isinstance(x, Var):")
        out(f"{ind}    y = bmap.get(x.id)")
        out(f"{ind}    if y is None:")
        out(f"{ind}        bmap[x.id] = {target}")
        out(f"{ind}        trail.append(x.id)")
        out(f"{ind}        break")
        out(f"{ind}    x = y")
        out(f"{ind}else:")

    def emit(node: tuple, ind: str, depth: int) -> None:
        kind = node[0]
        inner = ind + "    "
        if kind == "v":
            slot, sid = f"c[{slot_base + 2 * node[1]}]", f"c[{slot_base + 2 * node[1] + 1}]"
            if node[1] not in seen:
                # first occurrence on the match path: the slot is unbound
                seen.add(node[1])
                deref_or_bind(ind, slot)
                out(f"{inner}bmap[{sid}] = x")
                out(f"{inner}trail.append({sid})")
                return
            out(f"{ind}y = bmap.get({sid})")
            out(f"{ind}if y is None:")
            out(f"{ind}    y = {slot}")
            out(f"{ind}else:")
            out(f"{ind}    while isinstance(y, Var):")
            out(f"{ind}        z = bmap.get(y.id)")
            out(f"{ind}        if z is None:")
            out(f"{ind}            break")
            out(f"{ind}        y = z")
            out(f"{ind}while isinstance(x, Var):")
            out(f"{ind}    z = bmap.get(x.id)")
            out(f"{ind}    if z is None:")
            out(f"{ind}        if not isinstance(y, Var) or y.id != x.id:")
            out(f"{ind}            bmap[x.id] = y")
            out(f"{ind}            trail.append(x.id)")
            out(f"{ind}        break")
            out(f"{ind}    x = z")
            out(f"{ind}else:")
            out(f"{inner}if x is not y:")
            out(f"{inner}    if isinstance(y, Var):")
            out(f"{inner}        bmap[y.id] = x")
            out(f"{inner}        trail.append(y.id)")
            out(f"{inner}    elif not _unify(x, y, b, False):")
            out(f"{inner}        return False")
            return
        if kind != "s":
            term = f"c[{node[1]}]"
            deref_or_bind(ind, term)
            if kind == "a":
                out(f"{inner}if not isinstance(x, Atom) or x.name != {term}.name:")
            elif kind == "i":
                out(f"{inner}if not isinstance(x, Int) or x.value != {term}.value:")
            else:
                out(f"{inner}if x is not {term} and not _unify(x, {term}, b, False):")
            out(f"{inner}    return False")
            return
        _, functor, struct, args = node
        term = "t.head" if struct is None else f"c[{struct}]"
        if depth > _MAX_NESTING:
            mark(node)
            out(f"{ind}if not _unify(x, {term}, b, False):")
            out(f"{ind}    return False")
            return
        deref_or_bind(ind, term)
        out(f"{inner}if x is not {term}:")
        out(f"{inner}    if not isinstance(x, Struct) or x.functor != c[{functor}]"
            f" or len(x.args) != {len(args)}:")
        out(f"{inner}        return False")
        out(f"{inner}    a{depth} = x.args")
        for i in reversed(range(len(args))):
            out(f"{inner}    x = a{depth}[{i}]")
            emit(args[i], inner + "    ", depth + 1)

    emit(root, "    ", 0)
    out("    return True")
    return "\n".join(lines) + "\n"


def _values_source(nslots: int, slot_base: int, used: dict[int, int]) -> str:
    lines = ["def values(bmap, t):"]
    if nslots:
        lines += ["    c = t.consts", f"    ids = take_ids({nslots})"]
    for i in range(nslots):
        sid = f"c[{slot_base + 2 * i + 1}]"
        lines.append(f"    if {sid} not in bmap:")
        lines.append(f"        bmap[{sid}] = Var(c[{slot_base + 2 * i}].name, ids[{i}])")
    # resolve only once every slot is filled: a value may reach any slot
    for i in sorted(used):
        lines.append(f"    v{i} = bmap[c[{slot_base + 2 * i + 1}]]")
        lines.append(f"    if not v{i}.ground:")
        lines.append(f"        v{i} = _resolve(v{i}, bmap)")
    out = "".join(f"v{i}, " if i in used else "None, " for i in range(nslots))
    lines.append(f"    return [{out}]")
    return "\n".join(lines) + "\n"


def _build_source(body_key: tuple, take) -> str:
    lines = ["def build(v, t):", "    c = t.consts"]
    temps = [0]

    def expr(k) -> str:
        if isinstance(k, int):
            return f"v[{k}]"
        if isinstance(k, tuple):
            functor = take()
            args = "".join(f"{expr(a)}, " for a in k)
            name = f"s{temps[0]}"
            temps[0] += 1
            lines.append(f"    {name} = Struct(c[{functor}], ({args}))")
            return name
        return f"c[{take()}]"

    goals = "".join(f"{expr(k)}, " for k in body_key)
    lines.append(f"    return ({goals})")
    return "\n".join(lines) + "\n"
