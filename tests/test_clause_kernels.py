"""Clause kernels: each clause's head match and body build, generated once.

``ClauseTemplate.match`` is ``_unify(goal, head)`` unrolled on the head's
structure, and ``build`` constructs the body from the slot values that
``values`` resolves once.  On seeded random heads and goals — repeated
slots, nested structures, goal variables shared across arguments or
meeting a head structure, ground subterms — ``match`` must leave the
very bindings ``_unify`` leaves, entry for entry and in trail order, and
``build`` must equal the body resolved through them, variable ids
included.

The kernels are cached by clause shape: functors, atoms, integers and
ground subterms are data, never source text.  So facts of one shape
share one kernel, any atom compiles, and a template pickles without its
generated code.
"""

from __future__ import annotations

import gc
import importlib
import pickle
import random
import tracemalloc

import pytest

from repro.core import BLogEngine
from repro.logic import Program, Solver
from repro.logic.parser import Clause, parse_program, parse_query
from repro.logic.terms import Atom, Int, Struct, Var, make_list, reset_var_counter
from repro.logic.unify import Bindings, ClauseTemplate, _unify
from repro.workloads import scaled_family

ATOMS = ("a", "b", "1", "2", "f(a, b)", "[]")


def _term(rng: random.Random, depth: int, names: str) -> str:
    r = rng.random()
    if depth <= 0 or r < 0.3:
        return rng.choice(ATOMS)
    if r < 0.65:
        return rng.choice(names)
    if r < 0.8:
        return f"f({_term(rng, depth - 1, names)}, {_term(rng, depth - 1, names)})"
    if r < 0.9:
        return f"[{_term(rng, depth - 1, names)}|{_term(rng, depth - 1, names)}]"
    return f"g({_term(rng, depth - 1, names)})"


def random_case(rng: random.Random) -> tuple[ClauseTemplate, object]:
    """A clause over few variables (so slots repeat) and a goal over few
    others (so a goal variable recurs across arguments)."""
    args = ", ".join(_term(rng, 3, "XYZ") for _ in range(3))
    body = f"q({_term(rng, 2, 'XYZW')}, {_term(rng, 2, 'WX')}), r({_term(rng, 1, 'Y')}), s"
    (clause,) = parse_program(f"p({args}) :- {body}.")
    (goal,) = parse_query(f"p({', '.join(_term(rng, 3, 'AB') for _ in range(3))})")
    return clause.template, goal


def _matches_like_unify(template: ClauseTemplate, goal) -> bool:
    ref, got = Bindings(), Bindings()
    try:
        ok = _unify(goal, template.head, ref, False)
    except RecursionError:  # pragma: no cover - cyclic bindings only
        return False
    assert template.match(goal, got) is ok
    if ok:
        assert got.trail == ref.trail
        assert list(got.map.items()) == list(ref.map.items())
    return ok


@pytest.mark.parametrize("seed", range(6))
def test_match_leaves_the_bindings_unify_leaves(seed):
    rng = random.Random(seed)
    matched = 0
    for _ in range(400):
        template, goal = random_case(rng)
        matched += _matches_like_unify(template, goal)
    assert matched > 20  # the corpus reaches the success paths too


def test_hard_cases_match_like_unify():
    """The cases the generated code treats apart, each on purpose."""
    cases = [
        ("p(X, X, f(X)).", ["p(A, b, B)", "p(f(A), f(b), A)", "p(a, b, C)", "p(A, A, A)"]),
        ("p(f(X, Y), g(Y), X).", ["p(A, A, b)", "p(f(a, B), B, C)", "p(A, g(A), A)"]),
        ("p(f(a, [b]), X, [X|T]).", ["p(A, B, A)", "p(f(a, [b]), c, [c, d])", "p(A, A, A)"]),
        ("p(X, f(X, Y), Y).", ["p(A, A, a)", "p(g(B), f(g(c), B), d)", "p(A, B, B)"]),
        ("p(7, [], f(g(X))).", ["p(7, [], A)", "p(A, A, f(A))", "p(8, [], B)", "p(7, a, B)"]),
        ("go.", ["go", "stop"]),
    ]
    for source, goals in cases:
        (clause,) = parse_program(source)
        for text in goals:
            (goal,) = parse_query(text)
            _matches_like_unify(clause.template, goal)


def test_a_goal_variable_bound_to_a_head_structure():
    """``A`` meets ``f(X, Y)`` first (right to left), then its binding
    meets ``f(a, Z)``: the head structure's slots bind inside it."""
    (clause,) = parse_program("p(f(a, Z), f(X, Y)) :- q(X, Y, Z).")
    (goal,) = parse_query("p(A, A)")
    assert _matches_like_unify(clause.template, goal)


def test_deep_head_structures_fall_back_to_unify():
    """A head nested deeper than the generated code nests is matched by
    ``_unify`` below that depth, with the same result."""
    items = ", ".join(["X"] + [str(i) for i in range(80)])
    (clause,) = parse_program(f"p([{items}|T], X, T) :- q(T).")
    template = clause.template
    for text in (f"p([{', '.join(['a'] + [str(i) for i in range(80)])}], A, B)",
                 f"p([{', '.join(['A'] + [str(i) for i in range(80)])}|B], b, [])",
                 f"p([{', '.join(['a'] + [str(i) for i in range(79)])}, 0], A, B)"):
        (goal,) = parse_query(text)
        _matches_like_unify(template, goal)


@pytest.mark.parametrize("seed", range(4))
def test_build_equals_the_body_resolved(seed):
    rng = random.Random(100 + seed)
    built = 0
    for _ in range(300):
        template, goal = random_case(rng)
        ref = Bindings()
        if not _unify(goal, template.head, ref, False):
            continue
        reset_var_counter(50_000)
        template.fill(ref.map)
        try:
            expected = tuple(map(ref.resolve, template.body))
        except RecursionError:  # pragma: no cover - cyclic bindings only
            continue
        got = Bindings()
        reset_var_counter(50_000)
        assert template.match(goal, got)
        values = template.values(got.map)
        body = template.build(values)
        assert repr(body) == repr(expected)
        assert got.map == ref.map
        # each body slot's value and static count: what the body holds
        for i, k in template.counts:
            assert values[i] is not None and k > 0
        assert sum(k for _, k in template.counts) == sum(
            1 for g in template.body for t in g.walk() if isinstance(t, Var)
        )
        built += 1
    assert built > 20


def test_facts_of_one_shape_share_one_kernel():
    program = Program.from_source("\n".join(f"edge(n{i}, n{i + 1})." for i in range(50)))
    kernels = {id(c.template.kernel) for c in program}
    assert len(kernels) == 1
    again = Program.from_source("edge(x, y).\nlink(p, q).\n")
    assert {id(c.template.kernel) for c in again} == kernels


def test_atoms_with_quotes_and_newlines_compile_and_run():
    """Constants are data: an atom holding quotes, a backslash or a
    newline is never pasted into generated source."""
    odd = ["it's", 'say "hi"', "line\nbreak", "back\\slash", "')\n    return True\n#"]
    clauses = [Clause(Struct("odd", (Atom(name), Int(i)))) for i, name in enumerate(odd)]
    x, n = Var("X"), Var("N")
    clauses.append(Clause(
        Struct("pick", (x, n)), (Struct("odd", (x, n)), Struct("\\==", (x, Atom(odd[0])))),
    ))
    program = Program(clauses)
    result = BLogEngine(program).query("pick(X, N)")
    assert sorted(a["N"].value for a in result.answers) == [1, 2, 3, 4]
    assert {a["X"].name for a in result.answers} == set(odd[1:])
    goal = Struct("odd", (Atom(odd[4]), Var("N")))
    assert [s["N"] for s in Solver(program).solve_all([goal])] == [Int(4)]


def test_a_used_template_pickles_without_its_kernel():
    program = Program.from_source(
        "app([], L, L).\napp([H|T], L, [H|R]) :- app(T, L, R).\n"
    )
    query = "app(X, Y, [a, b, c])"
    expected = [str(a) for a in BLogEngine(program).query(query).answers]
    clone = pickle.loads(pickle.dumps(program))
    template = clone.clause(1).template
    assert template.kernel is program.clause(1).template.kernel  # the shape cache
    assert repr(template.head) == repr(program.clause(1).template.head)
    assert [str(a) for a in BLogEngine(clone).query(query).answers] == expected


def test_per_fact_template_memory():
    """Compiled templates of the seed-7 family program's facts stay
    within twice the 125 bytes a template took before kernels."""
    program = scaled_family(6, 3, 48, seed=7).program
    facts = [c for c in program if c.is_fact]
    facts[0].template  # the shape's kernel is compiled once, not per fact
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for clause in facts[1:]:
            clause.template
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert (after - before) / (len(facts) - 1) <= 250


def test_make_list_heads_match_like_unify():
    """A list skeleton in the head against a partial list in the goal."""
    head = Struct("p", (make_list([Var("X"), Var("Y")], Var("T")), Var("T")))
    template = ClauseTemplate(head, ())
    for goal in (
        Struct("p", (make_list([Atom("a")], Var("R")), Var("R"))),
        Struct("p", (Var("A"), make_list([Atom("c")]))),
        Struct("p", (make_list([Atom("a"), Atom("b"), Atom("c")]), Var("S"))),
    ):
        _matches_like_unify(template, goal)


def test_the_shape_cache_is_bounded(monkeypatch):
    """Past its bound the cache drops its oldest shapes; a template keeps
    its own kernel, so every template still matches."""
    unify_mod = importlib.import_module("repro.logic.unify")
    monkeypatch.setattr(unify_mod, "_KERNELS", {})
    monkeypatch.setattr(unify_mod, "_MAX_KERNELS", 4)
    templates = []
    for n in range(1, 11):
        (clause,) = parse_program(f"p({', '.join(['a'] * n)}).")
        templates.append(clause.template)
        assert len(unify_mod._KERNELS) <= 4
    for n, template in enumerate(templates, start=1):
        (goal,) = parse_query(f"p({', '.join(['A'] * n)})")
        assert template.match(goal, Bindings())
