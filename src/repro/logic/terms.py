"""Term representation for the B-LOG logic substrate.

The paper (section 2) models a logic program as facts and rules over
first-order terms: constants are lower-case, variables capitalized.  This
module provides the term algebra used by every other layer:

* :class:`Atom`   — a constant symbol (``sam``, ``[]``).
* :class:`Int`    — an integer constant (Prolog's integers).
* :class:`Var`    — a logic variable, identified by a globally unique id.
* :class:`Struct` — a compound term ``f(t1, ..., tn)``.

Terms are **immutable** and hashable; variable bindings live in a
separate :class:`Bindings` store (see :mod:`repro.logic.unify`), which
matches the structure-sharing discussion in section 6 of the paper (the
"very peculiar character of the logic variable").

Every term knows its symbol count (``size``) and whether it is
``ground`` (variable-free).  A :class:`Struct` computes both once, at
construction, from its arguments, so a ground subterm can be shared by
any number of resolvents instead of being walked and rebuilt.

Helper constructors build Prolog lists (``'.'/2`` cells terminated by
``[]``) and rename clauses apart for resolution.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence, Union

__all__ = [
    "Term",
    "Atom",
    "Int",
    "Var",
    "Struct",
    "NIL",
    "TRUE",
    "make_list",
    "list_to_python",
    "is_list",
    "term_vars",
    "term_size",
    "term_depth",
    "fresh_var",
    "reset_var_counter",
    "variant_of",
]


class Term:
    """Abstract base class of all terms.

    ``size`` is the number of symbols in the term and ``ground`` is true
    when it contains no variable.
    """

    __slots__ = ()

    size: int = 1
    ground: bool = True

    @property
    def indicator(self) -> tuple[str, int]:
        """The predicate indicator ``name/arity`` of a callable term."""
        raise TypeError(f"term {self!r} is not callable")

    def walk(self) -> Iterator["Term"]:
        """Yield this term and all subterms, pre-order."""
        yield self


class Atom(Term):
    """A constant symbol.

    Atoms are interned by name equality only; two ``Atom("sam")`` objects
    compare and hash equal.
    """

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    @property
    def indicator(self) -> tuple[str, int]:
        return (self.name, 0)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Atom) and other.name == self.name

    def __hash__(self) -> int:
        return hash(("Atom", self.name))

    def __repr__(self) -> str:
        return f"Atom({self.name!r})"

    def __str__(self) -> str:
        return self.name


class Int(Term):
    """An integer constant."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = int(value)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Int) and other.value == self.value

    def __hash__(self) -> int:
        return hash(("Int", self.value))

    def __repr__(self) -> str:
        return f"Int({self.value})"

    def __str__(self) -> str:
        return str(self.value)


_VAR_COUNTER = itertools.count(1)


def reset_var_counter(start: int = 1) -> None:
    """Reset the global variable id counter (for reproducible tests, or
    to move a process's fresh ids into a range of its own)."""
    global _VAR_COUNTER
    _VAR_COUNTER = itertools.count(start)


class Var(Term):
    """A logic variable.

    Identity is the unique ``id``; ``name`` is only for display.  Two
    occurrences of ``X`` in one clause share an id; renaming a clause
    apart allocates fresh ids (see :func:`rename_apart` in
    :mod:`repro.logic.unify`).
    """

    __slots__ = ("name", "id")

    ground = False

    def __init__(self, name: str = "_", vid: int | None = None):
        self.name = name
        self.id = next(_VAR_COUNTER) if vid is None else vid

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Var) and other.id == self.id

    def __hash__(self) -> int:
        return hash(("Var", self.id))

    def __repr__(self) -> str:
        return f"Var({self.name!r}, {self.id})"

    def __str__(self) -> str:
        if self.name and self.name != "_":
            return self.name
        return f"_G{self.id}"


def fresh_var(name: str = "_") -> Var:
    """Allocate a brand-new variable."""
    return Var(name)


class Struct(Term):
    """A compound term ``functor(arg1, ..., argn)`` with arity >= 1.

    ``size`` and ``ground`` are computed from the arguments' cached
    values at construction; the hash is computed on first use.
    """

    __slots__ = ("functor", "args", "size", "ground", "_hash")

    def __init__(self, functor: str, args: Sequence[Term]):
        if not args:
            raise ValueError("Struct needs at least one argument; use Atom")
        self.functor = functor
        self.args = args = tuple(args)
        size = 1
        ground = True
        for a in args:
            size += a.size
            if not a.ground:
                ground = False
        self.size = size
        self.ground = ground
        self._hash: int | None = None

    def __reduce__(self):
        # rebuild through the constructor: string hashes are seeded per
        # process, so a cached hash must never cross a pickle boundary
        return (Struct, (self.functor, self.args))

    @property
    def arity(self) -> int:
        return len(self.args)

    @property
    def indicator(self) -> tuple[str, int]:
        return (self.functor, len(self.args))

    def walk(self) -> Iterator[Term]:
        yield self
        for a in self.args:
            yield from a.walk()

    def __eq__(self, other: object) -> bool:
        return other is self or (
            isinstance(other, Struct)
            and other.size == self.size
            and other.functor == self.functor
            and other.args == self.args
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash(("Struct", self.functor, self.args))
        return h

    def __repr__(self) -> str:
        return f"Struct({self.functor!r}, {list(self.args)!r})"

    def __str__(self) -> str:
        if self.functor == "." and len(self.args) == 2:
            return _format_list(self)
        args = ", ".join(str(a) for a in self.args)
        return f"{self.functor}({args})"


NIL = Atom("[]")
TRUE = Atom("true")


def make_list(items: Iterable[Term], tail: Term = NIL) -> Term:
    """Build a Prolog list term from ``items`` with the given ``tail``."""
    out = tail
    for item in reversed(list(items)):
        out = Struct(".", (item, out))
    return out


def is_list(term: Term) -> bool:
    """True if ``term`` is a proper (NIL-terminated) list skeleton."""
    while isinstance(term, Struct) and term.functor == "." and term.arity == 2:
        term = term.args[1]
    return term == NIL


def list_to_python(term: Term) -> list[Term]:
    """Convert a proper Prolog list term to a Python list of elements.

    Raises ``ValueError`` on an improper list.
    """
    out: list[Term] = []
    while isinstance(term, Struct) and term.functor == "." and term.arity == 2:
        out.append(term.args[0])
        term = term.args[1]
    if term != NIL:
        raise ValueError(f"not a proper list (tail {term})")
    return out


def _format_list(term: Term) -> str:
    parts: list[str] = []
    while isinstance(term, Struct) and term.functor == "." and term.arity == 2:
        parts.append(str(term.args[0]))
        term = term.args[1]
    inner = ", ".join(parts)
    if term == NIL:
        return f"[{inner}]"
    return f"[{inner}|{term}]"


def term_vars(term: Term) -> list[Var]:
    """All distinct variables in ``term``, in first-occurrence order."""
    seen: dict[int, Var] = {}
    for sub in term.walk():
        if isinstance(sub, Var) and sub.id not in seen:
            seen[sub.id] = sub
    return list(seen.values())


def term_size(term: Term) -> int:
    """Number of symbols in ``term`` (atoms, ints, vars, functors)."""
    return term.size


def term_depth(term: Term) -> int:
    """Nesting depth: atoms/vars/ints have depth 1."""
    if isinstance(term, Struct):
        return 1 + max(term_depth(a) for a in term.args)
    return 1


def variant_of(a: Term, b: Term) -> bool:
    """True if ``a`` and ``b`` are identical up to variable renaming."""
    fwd: dict[int, int] = {}
    rev: dict[int, int] = {}

    def go(x: Term, y: Term) -> bool:
        if isinstance(x, Var) and isinstance(y, Var):
            if x.id in fwd and fwd[x.id] != y.id:
                return False
            if y.id in rev and rev[y.id] != x.id:
                return False
            fwd[x.id] = y.id
            rev[y.id] = x.id
            return True
        if isinstance(x, Atom) and isinstance(y, Atom):
            return x.name == y.name
        if isinstance(x, Int) and isinstance(y, Int):
            return x.value == y.value
        if isinstance(x, Struct) and isinstance(y, Struct):
            if x.functor != y.functor or x.arity != y.arity:
                return False
            return all(go(p, q) for p, q in zip(x.args, y.args))
        return False

    return go(a, b)


TermLike = Union[Term, str, int]


def to_term(value: TermLike) -> Term:
    """Coerce a Python value to a term: str->Atom, int->Int, Term->itself."""
    if isinstance(value, Term):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not terms")
    if isinstance(value, int):
        return Int(value)
    if isinstance(value, str):
        return Atom(value)
    raise TypeError(f"cannot convert {value!r} to a term")
