"""The first-argument index returns exactly what a predicate scan returns.

:class:`ScanIndex` below is the clause retrieval :class:`Program` used
before it kept merged per-key lists: it walks every clause of the
predicate and keeps those whose first argument has the goal's key or
is a variable.  Random programs, built clause by clause with ``add``
and ``retract`` interleaved (directly and through
:meth:`LinkedDatabase.retract_clause`), must give the same
``candidates`` and ``clauses_for`` lists, in the same order, with the
same :class:`IndexStats` counters, since arc keys carry clause ids and
the search order follows candidate order.
"""

from __future__ import annotations

import random
from collections import defaultdict

import pytest

import repro.logic.program as program_mod
from repro.linkdb import LinkedDatabase
from repro.logic.parser import Clause
from repro.logic.program import IndexStats, Program, _first_arg_key
from repro.logic.terms import Atom, Int, Struct, Term, Var


class ScanIndex:
    """Reference: the predicate scan, kept in step with a Program."""

    def __init__(self) -> None:
        self.clauses: list[Clause] = []
        self.alive: list[bool] = []
        self.by_pred: dict[tuple[str, int], list[int]] = defaultdict(list)
        self.by_first_arg: dict[tuple, list[int]] = defaultdict(list)
        self.stats = IndexStats()

    def add(self, clause: Clause) -> None:
        cid = len(self.clauses)
        self.clauses.append(clause)
        self.alive.append(True)
        self.by_pred[clause.indicator].append(cid)
        key = _first_arg_key(clause.head)
        if key is not None:
            self.by_first_arg[(clause.indicator, key)].append(cid)

    def clauses_for(self, ind: tuple[str, int]) -> list[int]:
        return [c for c in self.by_pred.get(ind, ()) if self.alive[c]]

    def candidates(self, goal: Term) -> list[int]:
        self.stats.lookups += 1
        ind = goal.indicator
        key = _first_arg_key(goal)
        if key is None:
            out = self.clauses_for(ind)
            self.stats.candidates += len(out)
            return out
        self.stats.first_arg_hits += 1
        keyed = set(self.by_first_arg.get((ind, key), ()))
        out = []
        for cid in self.by_pred.get(ind, ()):
            if not self.alive[cid]:
                continue
            if cid in keyed or _first_arg_key(self.clauses[cid].head) is None:
                out.append(cid)
        self.stats.candidates += len(out)
        return out


PREDICATES = [("p", 1), ("p", 2), ("q", 2), ("r", 0), ("s", 3)]


def _first_arg(rng: random.Random) -> Term:
    roll = rng.random()
    if roll < 0.3:
        return Var("X")
    if roll < 0.55:
        return Atom(rng.choice("abc"))
    if roll < 0.75:
        return Int(rng.randrange(3))
    functor, arity = rng.choice([("f", 1), ("g", 2), ("f", 2)])
    return Struct(functor, tuple(Atom("z") for _ in range(arity)))


def _callable(rng: random.Random, name: str, arity: int) -> Term:
    if arity == 0:
        return Atom(name)
    rest = tuple(Var("Y") for _ in range(arity - 1))
    return Struct(name, (_first_arg(rng), *rest))


def _stats(s: IndexStats) -> tuple[int, int, int]:
    return (s.lookups, s.candidates, s.first_arg_hits)


def _check_all(rng: random.Random, prog: Program, ref: ScanIndex) -> None:
    for ind in [*PREDICATES, ("nosuch", 1)]:
        assert prog.clauses_for(ind) == ref.clauses_for(ind)
    for _ in range(6):
        goal = _callable(rng, *rng.choice([*PREDICATES, ("nosuch", 2)]))
        assert prog.candidates(goal) == ref.candidates(goal), goal
        assert _stats(prog.stats) == _stats(ref.stats)


@pytest.mark.parametrize("seed", range(40))
def test_candidates_match_the_scan(seed):
    rng = random.Random(seed)
    prog, ref = Program(), ScanIndex()
    for _ in range(rng.randint(5, 80)):
        roll = rng.random()
        if roll < 0.7 or not ref.clauses:
            clause = Clause(_callable(rng, *rng.choice(PREDICATES)))
            ref.add(clause)
            assert prog.add(clause) == len(ref.clauses) - 1
        elif roll < 0.85:
            cid = rng.randrange(len(ref.clauses))
            prog.retract(cid)
            ref.alive[cid] = False
        else:
            _check_all(rng, prog, ref)
    _check_all(rng, prog, ref)
    assert prog.clause_ids() == [c for c, ok in enumerate(ref.alive) if ok]


@pytest.mark.parametrize("seed", range(10))
def test_linkdb_retract_path_matches_the_scan(seed):
    rng = random.Random(100 + seed)
    prog, ref = Program(), ScanIndex()
    for _ in range(20):
        clause = Clause(_callable(rng, *rng.choice(PREDICATES)))
        prog.add(clause)
        ref.add(clause)
    db = LinkedDatabase(prog)
    for _ in range(30):
        if rng.random() < 0.5:
            clause = Clause(_callable(rng, *rng.choice(PREDICATES)))
            db.add_clause(clause)
            ref.add(clause)
        else:
            live = [c for c, ok in enumerate(ref.alive) if ok]
            if live:
                cid = rng.choice(live)
                db.retract_clause(cid)
                ref.alive[cid] = False
        _check_all(rng, prog, ref)


def test_one_lookup_does_not_scan_the_predicate(monkeypatch):
    prog = Program(Clause(Struct("big", (Atom(f"k{i}"), Int(i)))) for i in range(20_000))
    calls = 0
    real = program_mod._first_arg_key

    def counting(term: Term):
        nonlocal calls
        calls += 1
        return real(term)

    monkeypatch.setattr(program_mod, "_first_arg_key", counting)
    assert prog.candidates(Struct("big", (Atom("k19999"), Var("W")))) == [19_999]
    assert calls <= 1
