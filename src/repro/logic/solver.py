"""Sequential depth-first SLD resolution — the Prolog baseline.

Section 2 of the paper walks through DEC-10-Prolog-style execution of
``?- gf(sam, G)``: depth-first, left-to-right, clauses tried in source
order.  This engine reproduces that behaviour exactly; it is the
baseline every B-LOG strategy is compared against (experiment E1) and
the oracle for solution-set equivalence tests.

The engine is generator-based: :meth:`Solver.solve` lazily yields
:class:`Solution` objects in Prolog order.  A depth bound turns runaway
recursion into countable cutoffs instead of a crash.

Supported control: conjunction, ``!`` (cut, standard transparent-through-
conjunction semantics), and the builtins of
:mod:`repro.logic.builtins`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from .builtins import BuiltinError, call_builtin, is_builtin
from .parser import Clause, parse_query
from .program import Program
from .terms import Atom, Struct, Term, Var, term_vars
# rename_apart stays importable here: perfbench times the solver-side
# renaming layer under this name
from .unify import Bindings, UnifyStats, rename_apart, unify  # noqa: F401

__all__ = ["Solver", "Solution", "SolverStats", "prolog_solutions"]

_CUT = Atom("!")


@dataclass(frozen=True)
class Solution:
    """One answer: the query with bindings applied, plus named bindings."""

    goals: tuple[Term, ...]
    bindings: dict[str, Term]

    def __getitem__(self, name: str) -> Term:
        return self.bindings[name]

    def __contains__(self, name: str) -> bool:
        return name in self.bindings

    def __str__(self) -> str:
        if not self.bindings:
            return "true"
        return ", ".join(f"{k} = {v}" for k, v in sorted(self.bindings.items()))


@dataclass
class SolverStats:
    """Work counters for one or more queries."""

    inferences: int = 0  # goal reductions attempted (clause tries)
    resolutions: int = 0  # successful head unifications
    builtin_calls: int = 0
    solutions: int = 0
    max_depth: int = 0
    depth_cutoffs: int = 0
    unify: UnifyStats = field(default_factory=UnifyStats)

    def reset(self) -> None:
        self.inferences = 0
        self.resolutions = 0
        self.builtin_calls = 0
        self.solutions = 0
        self.max_depth = 0
        self.depth_cutoffs = 0
        self.unify.reset()


class Solver:
    """Depth-first SLD resolution over a :class:`Program`.

    Parameters
    ----------
    program:
        The knowledge base.
    max_depth:
        Resolution depth bound; exceeding it fails that branch (counted
        in ``stats.depth_cutoffs``), keeping left-recursive programs
        terminating.
    occurs_check:
        Enable the unification occurs check (off by default, as in
        standard Prolog).
    """

    def __init__(
        self,
        program: Program,
        max_depth: int = 512,
        occurs_check: bool = False,
    ):
        self.program = program
        self.max_depth = max_depth
        self.occurs_check = occurs_check
        self.stats = SolverStats()

    # -- public API ---------------------------------------------------------
    def solve(
        self,
        query: str | Sequence[Term],
        max_solutions: Optional[int] = None,
    ) -> Iterator[Solution]:
        """Yield solutions to ``query`` in Prolog (depth-first) order.

        ``query`` is either source text (``"gf(sam, G)"``) or a sequence
        of goal terms.
        """
        goals = parse_query(query) if isinstance(query, str) else tuple(query)
        bindings = Bindings(self.stats.unify)
        qvars = [v for g in goals for v in term_vars(g)]
        seen_names: dict[str, Var] = {}
        for v in qvars:
            if v.name and v.name != "_":
                seen_names.setdefault(v.name, v)
        count = 0
        for _ in self._solve(goals, bindings, 0, [False]):
            self.stats.solutions += 1
            yield Solution(
                goals=bindings.resolve_all(goals),
                bindings={n: bindings.resolve(v) for n, v in seen_names.items()},
            )
            count += 1
            if max_solutions is not None and count >= max_solutions:
                return

    def solve_all(
        self, query: str | Sequence[Term], max_solutions: Optional[int] = None
    ) -> list[Solution]:
        """All solutions as a list."""
        return list(self.solve(query, max_solutions))

    def succeeds(self, query: str | Sequence[Term]) -> bool:
        """True if the query has at least one solution."""
        for _ in self.solve(query, max_solutions=1):
            return True
        return False

    # -- engine ---------------------------------------------------------------
    def _solve(
        self,
        goals: tuple[Term, ...],
        b: Bindings,
        depth: int,
        cutflag: list[bool],
    ) -> Iterator[None]:
        if depth > self.stats.max_depth:
            self.stats.max_depth = depth
        if not goals:
            yield None
            return
        goal = b.walk(goals[0])
        rest = goals[1:]

        # conjunction flattening: (a, b) as a goal term
        if isinstance(goal, Struct) and goal.functor == "," and goal.arity == 2:
            yield from self._solve((goal.args[0], goal.args[1]) + rest, b, depth, cutflag)
            return

        if goal == _CUT:
            yield from self._solve(rest, b, depth, cutflag)
            cutflag[0] = True
            return

        if isinstance(goal, Var):
            raise BuiltinError("cannot call an unbound variable goal")

        # engine-level control constructs (need recursive solving, so
        # they live here rather than in the builtin table)
        if isinstance(goal, Struct) and goal.functor == "\\+" and goal.arity == 1:
            # negation as failure: succeeds iff the sub-goal has no
            # solution; never exports bindings
            mark = b.mark()
            solved = False
            for _ in self._solve((goal.args[0],), b, depth + 1, [False]):
                solved = True
                break
            b.undo_to(mark)
            if not solved:
                yield from self._solve(rest, b, depth, cutflag)
            return

        if isinstance(goal, Struct) and goal.functor == "call" and goal.arity == 1:
            yield from self._solve((goal.args[0],) + rest, b, depth + 1, cutflag)
            return

        if isinstance(goal, Struct) and goal.functor == "findall" and goal.arity == 3:
            template, sub, out = goal.args
            collected: list[Term] = []
            mark = b.mark()
            for _ in self._solve((sub,), b, depth + 1, [False]):
                collected.append(b.resolve(template))
            b.undo_to(mark)
            from .terms import make_list
            from .unify import unify as _unify

            mark = b.mark()
            if _unify(out, make_list(collected), b, self.occurs_check):
                yield from self._solve(rest, b, depth, cutflag)
                if cutflag[0]:
                    b.undo_to(mark)
                    return
            b.undo_to(mark)
            return

        if is_builtin(goal):
            self.stats.builtin_calls += 1
            mark = b.mark()
            try:
                for _ in call_builtin(goal, b):
                    yield from self._solve(rest, b, depth, cutflag)
                    if cutflag[0]:
                        b.undo_to(mark)
                        return
            finally:
                b.undo_to(mark)
            return

        if depth >= self.max_depth:
            self.stats.depth_cutoffs += 1
            return

        for cid in self.program.candidates(goal):
            self.stats.inferences += 1
            clause = self.program.clause(cid)
            head, body = _rename_clause(clause)
            mark = b.mark()
            if unify(goal, head, b, self.occurs_check):
                self.stats.resolutions += 1
                localcut = [False]
                for _ in self._solve(body, b, depth + 1, localcut):
                    yield from self._solve(rest, b, depth, cutflag)
                    if cutflag[0]:
                        b.undo_to(mark)
                        return
                b.undo_to(mark)
                if localcut[0]:
                    return
            else:
                b.undo_to(mark)


def _rename_clause(clause: Clause) -> tuple[Term, tuple[Term, ...]]:
    """Rename a clause apart: fresh variables shared by head and body."""
    return clause.template.rename()


def prolog_solutions(
    program: Program,
    query: str | Sequence[Term],
    var: Optional[str] = None,
    max_depth: int = 512,
    max_solutions: Optional[int] = None,
) -> list:
    """Convenience: solutions of ``query`` against ``program``.

    With ``var`` given, returns the list of that variable's bindings (as
    terms); otherwise the list of :class:`Solution` objects.
    """
    solver = Solver(program, max_depth=max_depth)
    sols = solver.solve_all(query, max_solutions=max_solutions)
    if var is None:
        return sols
    return [s[var] for s in sols]
