"""Built-in predicates for the sequential engine and the OR-tree expander.

The paper's examples only need pure Horn clauses, but realistic
workloads (N-queens, map coloring) need arithmetic and comparison.
Builtins are *deterministic tests/bindings*: they either fail or
succeed exactly once, optionally binding variables.  This keeps the
OR-tree model clean — a builtin goal never fans out.  Each one but
``between/3`` is a plain function that binds into the step's
:class:`Bindings` and returns whether it succeeded (``DETERMINATE``):
the OR-tree calls it directly, and :func:`call_builtin` wraps it as a
one-solution generator for the sequential engine.

Supported: ``true``, ``fail``/``false``, ``=``, ``\\=``, ``==``,
``\\==``, ``is``, ``<``, ``>``, ``=<``, ``>=``, ``=:=``, ``=\\=``,
``var``, ``nonvar``, ``atom``, ``integer``, ``between/3`` (the one
nondeterministic builtin, used by generators).
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

from .terms import Atom, Int, Struct, Term, Var
from .unify import Bindings, unify

__all__ = [
    "BUILTINS",
    "DETERMINATE",
    "is_builtin",
    "eval_arith",
    "call_builtin",
    "BuiltinError",
]


class BuiltinError(ValueError):
    """Raised when a builtin is called with unusable arguments."""


def eval_arith(term: Term, bindings: Bindings) -> int:
    """Evaluate a ground arithmetic expression to an int (Prolog ``is``)."""
    if term.__class__ is Int:
        return term.value  # type: ignore[attr-defined]
    if isinstance(term, Var):
        term = bindings.walk(term)
        if isinstance(term, Var):
            raise BuiltinError(f"arithmetic on unbound variable {term}")
    if isinstance(term, Int):
        return term.value
    if isinstance(term, Struct):
        f, n = term.functor, len(term.args)
        if n == 2:
            a = eval_arith(term.args[0], bindings)
            b = eval_arith(term.args[1], bindings)
            if f == "+":
                return a + b
            if f == "-":
                return a - b
            if f == "*":
                return a * b
            if f in ("//", "/"):
                if b == 0:
                    raise BuiltinError("division by zero")
                return a // b
            if f == "mod":
                if b == 0:
                    raise BuiltinError("mod by zero")
                return a % b
            if f == "min":
                return min(a, b)
            if f == "max":
                return max(a, b)
        if n == 1:
            a = eval_arith(term.args[0], bindings)
            if f == "-":
                return -a
            if f == "abs":
                return abs(a)
    raise BuiltinError(f"unknown arithmetic term {term}")


def _unify_or_undo(x: Term, y: Term, b: Bindings) -> bool:
    """Unify ``x`` with ``y`` in ``b``; on failure ``b`` is as it was."""
    mark = len(b.trail)
    if unify(x, y, b):
        return True
    b.undo_to(mark)
    return False


# Each determinate builtin is a plain function (args, bindings) -> success
# that binds into ``bindings`` and, when it fails, leaves them as they
# were.  ``between/3``, the one builtin with several solutions, is a
# generator that yields once per solution and undoes its binding before
# the next.


def _bi_true(args: tuple[Term, ...], b: Bindings) -> bool:
    return True


def _bi_fail(args: tuple[Term, ...], b: Bindings) -> bool:
    return False


def _bi_unify(args: tuple[Term, ...], b: Bindings) -> bool:
    return _unify_or_undo(args[0], args[1], b)


def _bi_not_unify(args: tuple[Term, ...], b: Bindings) -> bool:
    mark = len(b.trail)
    ok = unify(args[0], args[1], b)
    b.undo_to(mark)
    return not ok


def _struct_eq(x: Term, y: Term, b: Bindings) -> bool:
    x = b.walk(x)
    y = b.walk(y)
    if isinstance(x, Var) or isinstance(y, Var):
        return isinstance(x, Var) and isinstance(y, Var) and x.id == y.id
    if isinstance(x, Struct) and isinstance(y, Struct):
        return (
            x.functor == y.functor
            and x.arity == y.arity
            and all(_struct_eq(p, q, b) for p, q in zip(x.args, y.args))
        )
    return x == y


def _bi_struct_eq(args: tuple[Term, ...], b: Bindings) -> bool:
    return _struct_eq(args[0], args[1], b)


def _bi_struct_neq(args: tuple[Term, ...], b: Bindings) -> bool:
    return not _struct_eq(args[0], args[1], b)


def _bi_is(args: tuple[Term, ...], b: Bindings) -> bool:
    value = Int(eval_arith(args[1], b))
    x = args[0]
    if b.stats is None:
        # unify's own first step, for the usual unbound left side
        bmap = b.map
        while isinstance(x, Var):
            y = bmap.get(x.id)
            if y is None:
                bmap[x.id] = value
                b.trail.append(x.id)
                return True
            x = y
    return _unify_or_undo(x, value, b)


def _bi_lt(args: tuple[Term, ...], b: Bindings) -> bool:
    return eval_arith(args[0], b) < eval_arith(args[1], b)


def _bi_gt(args: tuple[Term, ...], b: Bindings) -> bool:
    return eval_arith(args[0], b) > eval_arith(args[1], b)


def _bi_le(args: tuple[Term, ...], b: Bindings) -> bool:
    return eval_arith(args[0], b) <= eval_arith(args[1], b)


def _bi_ge(args: tuple[Term, ...], b: Bindings) -> bool:
    return eval_arith(args[0], b) >= eval_arith(args[1], b)


def _bi_eq(args: tuple[Term, ...], b: Bindings) -> bool:
    return eval_arith(args[0], b) == eval_arith(args[1], b)


def _bi_ne(args: tuple[Term, ...], b: Bindings) -> bool:
    return eval_arith(args[0], b) != eval_arith(args[1], b)


def _bi_var(args: tuple[Term, ...], b: Bindings) -> bool:
    return isinstance(b.walk(args[0]), Var)


def _bi_nonvar(args: tuple[Term, ...], b: Bindings) -> bool:
    return not isinstance(b.walk(args[0]), Var)


def _bi_atom(args: tuple[Term, ...], b: Bindings) -> bool:
    return isinstance(b.walk(args[0]), Atom)


def _bi_integer(args: tuple[Term, ...], b: Bindings) -> bool:
    return isinstance(b.walk(args[0]), Int)


def _bi_between(args: tuple[Term, ...], b: Bindings) -> Iterator[None]:
    lo = eval_arith(args[0], b)
    hi = eval_arith(args[1], b)
    x = b.walk(args[2])
    if isinstance(x, Int):
        if lo <= x.value <= hi:
            yield None
        return
    if not isinstance(x, Var):
        return
    for v in range(lo, hi + 1):
        mark = b.mark()
        if unify(x, Int(v), b):
            yield None
        b.undo_to(mark)


#: the builtins that succeed at most once, by indicator
DETERMINATE: dict[tuple[str, int], Callable[[tuple[Term, ...], Bindings], bool]] = {
    ("true", 0): _bi_true,
    ("fail", 0): _bi_fail,
    ("false", 0): _bi_fail,
    ("=", 2): _bi_unify,
    ("\\=", 2): _bi_not_unify,
    ("==", 2): _bi_struct_eq,
    ("\\==", 2): _bi_struct_neq,
    ("is", 2): _bi_is,
    ("<", 2): _bi_lt,
    (">", 2): _bi_gt,
    ("=<", 2): _bi_le,
    (">=", 2): _bi_ge,
    ("=:=", 2): _bi_eq,
    ("=\\=", 2): _bi_ne,
    ("var", 1): _bi_var,
    ("nonvar", 1): _bi_nonvar,
    ("atom", 1): _bi_atom,
    ("integer", 1): _bi_integer,
}

#: every builtin by indicator: a determinate one's test, and between/3's
#: generator
BUILTINS: dict[tuple[str, int], Callable] = {**DETERMINATE, ("between", 3): _bi_between}


def is_builtin(goal: Term) -> bool:
    """True if ``goal`` is handled by a builtin rather than the database."""
    try:
        return goal.indicator in BUILTINS
    except TypeError:
        return False


def call_builtin(goal: Term, bindings: Bindings) -> Iterator[None]:
    """Run the builtin for ``goal``; yields once per solution."""
    ind = goal.indicator
    fn = BUILTINS[ind]
    args = goal.args if isinstance(goal, Struct) else ()
    if ind in DETERMINATE:
        return _once(fn, args, bindings)
    return fn(args, bindings)


def _once(fn: Callable, args: tuple[Term, ...], bindings: Bindings) -> Iterator[None]:
    if fn(args, bindings):
        yield None
