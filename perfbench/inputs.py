"""Seeded inputs and the answers they must produce.

Everything a run feeds the system comes from the workload seed: the
family program, each client's session stream and the nrev lists.  The
expected answers are computed once, before anything is timed: the
sequential ``Solver``'s answer multiset for every family query, the
5-queens board set, and the reversed list for nrev.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from repro.logic.solver import Solver
from repro.logic.terms import Int, make_list
from repro.workloads import scaled_family, solve_nqueens

#: 6 generations from 48 couples with 3 children each: about 2,000
#: people and 3,800 facts.  Every session asks about one subject its
#: client has not asked about before, so the session learns new arc
#: weights and its merge bumps the store generation (§5 learning only
#: ever sets unknown weights, so a program whose subjects are used up
#: stops learning); the pools (633 subjects for f and m, 390 for gf and
#: gm) last a 45 s window at up to about 3,500 queries/s, and the record
#: gives the share a run used (``info.pool_use``).
FAMILY = {"generations": 6, "children_per_couple": 3, "couples_per_generation": 48}
SHAPES = ("gf", "gm", "f", "m")
ANSWER_VAR = "Who"
# The session mix below is this benchmark's assumption, not measured
# traffic: no trace of B-LOG users exists.  Its numbers were chosen so
# that runs of different seeds do the same amount of work, and each run's
# record gives the cache hit ratio and merge rate they produce, so that
# measured traffic can replace them.  (E16's mix, in
# benchmarks/test_e16_serving.py, has even shares of gf and f over
# 20-request sessions that never end.)
#: sessions per shape in each block of 20 consecutive sessions of a
#: client, in seeded order: fixed counts, not draws, so the share of the
#: costlier two-level joins (gf, gm) is the same in every run
SHAPE_BLOCK = {"gf": 3, "gm": 3, "f": 7, "m": 7}
#: a §5 session: one query shape about the new subject and two subjects
#: the client asked about before, closed by end_session.  The first
#: query bypasses the cache, so every merged session has run the engine.
SESSION_QUERIES = 48
SUBJECT_WEIGHTS = (0.5, 0.3, 0.2)

#: 5-queens, not 6: a 6-queens search holds so many nodes that about
#: half its time is full collector passes over them, which made its
#: latency swing by a fifth from run to run on a shared host; 5-queens
#: (2,154 expansions, 10 boards) keeps the same builtin- and
#: arithmetic-heavy search on a heap a fifth the size
QUEENS_N = 5
NREV_LENGTH = 30


@dataclass(frozen=True)
class Op:
    """One closed-loop step of a client: a query, or the end of a session."""

    session: str
    query: Optional[str]  # None: end_session
    fresh: bool = False  # bypass the answer cache


@dataclass
class FamilyInputs:
    """The seeded family program, its query pools and expected answers."""

    source: str
    pools: dict[str, list[str]]  # shape -> subjects whose query has answers
    expected: dict[str, tuple[str, ...]]  # query text -> sorted answer values

    @staticmethod
    def query(shape: str, subject: str) -> str:
        return f"{shape}({subject}, {ANSWER_VAR})"

    def check(self, query: str, answers: list[dict]) -> bool:
        """True when ``answers`` is exactly the Solver's answer multiset."""
        got = sorted(str(a.get(ANSWER_VAR)) for a in answers)
        return tuple(got) == self.expected[query]


def build_family(seed: int) -> FamilyInputs:
    """The seeded family and every query's expected answer multiset.

    The multisets are joined from the generator's parent maps, one entry
    per derivation, as the rules derive them; a seeded sample of queries
    is checked against the sequential ``Solver``.  (The Solver does not
    index goals whose first argument is bound only through the binding
    store, so solving all of them would take longer than the run.)
    """
    inst = scaled_family(**FAMILY, seed=seed)
    children: dict[str, dict[str, list[str]]] = {"f": {}, "m": {}}
    for pred, parent_of in (("f", inst.fathers), ("m", inst.mothers)):
        for child, parent in parent_of.items():
            children[pred].setdefault(parent, []).append(child)

    def derive(shape: str, subject: str) -> list[str]:
        kids = children[shape[-1]].get(subject, [])
        if len(shape) == 1:
            return kids
        # gf/gm: f(X,Y) or m(X,Y), then f(Y,Z) by one rule and m(Y,Z) by the other
        return [z for y in kids for pred in ("f", "m") for z in children[pred].get(y, [])]

    older = [p for gen in inst.generations[:-2] for p in gen]
    parents = [p for gen in inst.generations[:-1] for p in gen]
    pools: dict[str, list[str]] = {}
    expected: dict[str, tuple[str, ...]] = {}
    for shape in SHAPES:
        pools[shape] = []
        for subject in older if len(shape) == 2 else parents:
            values = tuple(sorted(derive(shape, subject)))
            if values:
                pools[shape].append(subject)
                expected[FamilyInputs.query(shape, subject)] = values
    family = FamilyInputs(source=inst.source, pools=pools, expected=expected)
    rng = np.random.default_rng([seed, len(SHAPES)])
    solver = Solver(inst.program)
    for shape in SHAPES:
        for i in rng.choice(len(pools[shape]), size=2, replace=False):
            q = family.query(shape, pools[shape][int(i)])
            answers = [{ANSWER_VAR: str(s[ANSWER_VAR])} for s in solver.solve_all(q)]
            if not family.check(q, answers):
                raise RuntimeError(f"expected answers of {q} disagree with the Solver")
    return family


def session_ops(family: FamilyInputs, seed: int, client: int) -> Iterator[Op]:
    """A client's endless, seeded stream of sessions of similar queries."""
    rng = np.random.default_rng([seed, client])
    order = {shape: rng.permutation(len(family.pools[shape])) for shape in SHAPES}
    asked: dict[str, list[str]] = {shape: [] for shape in SHAPES}
    block = [shape for shape, k in SHAPE_BLOCK.items() for _ in range(k)]
    n = 0
    while True:
        if n % len(block) == 0:
            rng.shuffle(block)
        shape = block[n % len(block)]
        pool, seen = family.pools[shape], asked[shape]
        new = pool[order[shape][len(seen) % len(pool)]]
        known = [seen[int(i)] for i in rng.integers(len(seen), size=2)] if seen else [new, new]
        subjects = [new, *known]
        picks = rng.choice(len(subjects), size=SESSION_QUERIES - 1, p=SUBJECT_WEIGHTS)
        session = f"c{client}s{n}"
        yield Op(session, family.query(shape, new), fresh=True)
        for i in picks:
            yield Op(session, family.query(shape, subjects[i]))
        yield Op(session, None)
        seen.append(new)
        n += 1


def queens_boards() -> list[list[int]]:
    """The board set every queens query must return."""
    return sorted(solve_nqueens(QUEENS_N))


def nrev_lists(seed: int) -> Iterator[list[int]]:
    """An endless seeded stream of 30-element lists for nrev queries."""
    rng = np.random.default_rng([seed, NREV_LENGTH])
    while True:
        yield [int(v) for v in rng.integers(0, 1000, size=NREV_LENGTH)]


def nrev_text(items: list[int]) -> str:
    return f"nrev({make_list([Int(v) for v in items])}, R)"


def reversed_text(items: list[int]) -> str:
    """How the engine prints the answer ``R`` of ``nrev(items, R)``."""
    return str(make_list([Int(v) for v in reversed(items)]))
