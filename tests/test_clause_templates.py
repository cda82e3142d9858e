"""Compiled clause templates: the OR-tree's unify-before-rename path.

``OrTree._expand_user`` unifies each goal against a clause's compiled
template and builds terms only for the clauses that match.  The
reference below is the rename-then-unify expansion it replaced: rename
the whole clause apart, unify, then resolve the whole resolvent and
answer.  On seeded random programs the two must agree step by step on
every child's resolvent and answer — exact variable ids included, so
variable sharing and the fresh-id sequence agree too — on the id
counter's position after each step, and on ``words_copied``.
"""

from __future__ import annotations

import random
import sys
import threading

import pytest

from repro.core import BLogEngine
from repro.logic import Program, Solver
from repro.logic import terms as terms_mod
from repro.logic.terms import Slot, Struct, Term, Var, reset_var_counter, take_ids
from repro.logic.unify import Bindings, rename_apart, unify
from repro.ortree import OrTree
from repro.ortree.tree import ArcKey, OrArc, OrNode, canonical_goal
from repro.workloads import nqueens_program, nqueens_query, nrev_program, nrev_query


class RenameFirstTree(OrTree):
    """The expansion before templates: rename every candidate, then unify."""

    def _expand_user(self, node, goal):
        children = []
        caller_id, literal_ix = node.goal_sources[0]
        for cid in self.program.candidates(goal):
            clause = self.program.clause(cid)
            mapping: dict = {}
            head = rename_apart(clause.head, mapping)
            body = tuple(rename_apart(g, mapping) for g in clause.body)
            b = Bindings()
            if not unify(goal, head, b):
                continue
            if self.arc_key_policy == "pointer":
                key = ArcKey("pointer", (caller_id, literal_ix, cid))
            else:
                key = ArcKey("goal", (canonical_goal(goal), cid))
            body = tuple(b.resolve(g) for g in body)
            sources = tuple((cid, i) for i in range(len(body)))
            # always resolve and re-measure the whole resolvent and answer
            children.append(self._make_child(node, body, sources, key, b))
        return children


# -- seeded random programs ------------------------------------------------------

CONSTS = ("a", "b", "c")
VARS = ("X", "Y", "Z", "W")


def _term(rng: random.Random, depth: int) -> str:
    r = rng.random()
    if depth <= 0 or r < 0.35:
        return rng.choice(CONSTS)
    if r < 0.7:
        return rng.choice(VARS)
    if r < 0.85:
        return f"f({_term(rng, depth - 1)}, {_term(rng, depth - 1)})"
    return f"g({_term(rng, depth - 1)})"


def _ground(rng: random.Random, depth: int) -> str:
    r = rng.random()
    if depth <= 0 or r < 0.5:
        return rng.choice(CONSTS)
    if r < 0.8:
        return f"f({_ground(rng, depth - 1)}, {_ground(rng, depth - 1)})"
    return f"g({_ground(rng, depth - 1)})"


def random_program(seed: int) -> tuple[str, list[str]]:
    """A program over p/2, q/2 and r/1, and queries against it.

    Every program has repeated head variables (``p(X, X)``), var-var
    head arguments, nested structures, ground facts, and recursive
    rules, so one clause is used more than once along a chain.
    """
    rng = random.Random(seed)
    lines = [
        "p(X, X).",
        f"p({_ground(rng, 2)}, {_ground(rng, 2)}).",
        "p(X, Y) :- q(Y, X).",
        f"p(f(X, Y), Z) :- p(Y, Z), r({_term(rng, 1)}).",
        "q(X, Y) :- r(X), r(Y).",
        f"q(g(X), {_term(rng, 2)}).",
        "r(a).",
        "r(g(X)) :- r(X).",
        f"r({_ground(rng, 2)}).",
    ]
    for _ in range(rng.randint(2, 5)):
        pred = rng.choice(("p", "q"))
        head = f"{pred}({_term(rng, 2)}, {_term(rng, 2)})"
        if rng.random() < 0.5:
            lines.append(head + ".")
        else:
            body = ", ".join(
                f"{rng.choice(('p', 'q'))}({_term(rng, 1)}, {_term(rng, 1)})"
                if rng.random() < 0.6
                else f"r({_term(rng, 1)})"
                for _ in range(rng.randint(1, 2))
            )
            lines.append(f"{head} :- {body}.")
    rng.shuffle(lines)
    queries = ["p(A, B)", "q(A, A)", "p(f(A, B), B)", "r(A), p(A, B)"]
    queries.append(f"p({_term(rng, 2).replace('X', 'A')}, B)")
    return "\n".join(lines), queries


def _snapshot(tree: OrTree, nids) -> list[tuple]:
    """Exact images of the given nodes: ``repr`` shows variable ids."""
    return [
        (repr(n.goals), repr(n.answer), n.goal_sources, n.arc.key, n.size)
        for n in (tree.node(c) for c in nids)
    ]


def expansion_log(tree_cls, program, query, policy, budget=120):
    """Expand breadth-first; log each step's children and the id counter."""
    reset_var_counter(10_000)
    tree = tree_cls(program, query, arc_key_policy=policy, max_depth=8)
    log = []
    frontier = [0]
    while frontier and len(log) < budget:
        nid = frontier.pop(0)
        try:
            children = tree.expand(nid)
        except RecursionError:
            # no occurs check: a binding made a cyclic term, which
            # neither expansion can resolve; both must stop here
            log.append((nid, "cyclic"))
            break
        # one probe id per step: equal counters take equal probes
        log.append((nid, _snapshot(tree, children), take_ids(1)[0], tree.words_copied))
        frontier.extend(children)
    return tree, log


def _slot_free(term) -> bool:
    return not any(isinstance(t, Slot) for t in term.walk())


def _reuses_a_clause(tree: OrTree) -> bool:
    for node in tree.nodes:
        used = [a.key.key[-1] for a in tree.chain_arcs(node.nid) if a.key.kind != "builtin"]
        if len(used) != len(set(used)):
            return True
    return False


@pytest.mark.parametrize("policy", ["pointer", "goal"])
@pytest.mark.parametrize("seed", range(12))
def test_template_expansion_matches_rename_first(seed, policy):
    source, queries = random_program(seed)
    program = Program.from_source(source)
    for query in queries:
        ref_tree, ref = expansion_log(RenameFirstTree, program, query, policy)
        tree, got = expansion_log(OrTree, program, query, policy)
        assert got == ref, (source, query)
        assert tree.words_copied == ref_tree.words_copied
        for node in tree.nodes:
            assert all(_slot_free(t) for t in node.goals + node.answer)
        for arc in tree.arcs:
            assert all(_slot_free(t) for t in arc.key.key if isinstance(t, Term))


def test_random_corpus_covers_the_hard_cases():
    """The corpus is only as good as what it exercises: var-var and
    repeated-variable heads match, and some chain reuses a clause."""
    program = Program.from_source(random_program(0)[0])
    tree, _ = expansion_log(OrTree, program, "p(A, B)", "pointer")
    assert _reuses_a_clause(tree)
    assert len(tree.solutions()) > 1


def test_untouched_rest_and_answer_are_shared():
    """A step that binds no goal variable keeps the parent's rest goals
    and answer as the same objects."""
    program = Program.from_source("t(X) :- u(X).\nu(Y).\nv(a).\n")
    tree = OrTree(program, "t(f(A)), v(A)")
    (child,) = tree.expand(0)  # t(f(A)) against t(X): only X is bound
    parent, node = tree.node(0), tree.node(child)
    assert node.answer is parent.answer
    assert node.goals[1] is parent.goals[1]
    (grandchild,) = tree.expand(child)  # u(f(A)) against u(Y)
    assert tree.node(grandchild).goals[0] is parent.goals[1]


# -- hazards ----------------------------------------------------------------------


def test_ids_reset_after_parsing_cannot_collide_with_slots():
    """Fresh ids restart below the parsed clauses' own ids; the answers
    still match the sequential solver."""
    reset_var_counter()  # the clauses' variables get the first ids
    program = Program.from_source(
        "app([], L, L).\n"
        "app([H|T], L, [H|R]) :- app(T, L, R).\n"
        "pair(X, Y, p(X, Y)).\n"
    )
    query = "app(X, Y, [a, b, c]), pair(X, Y, P)"

    def texts(answers):
        return sorted(sorted((k, str(v)) for k, v in a.items()) for a in answers)

    reset_var_counter()
    expected = texts(s.bindings for s in Solver(program).solve_all(query))
    reset_var_counter()
    answers = BLogEngine(program).query(query).answers
    assert texts(answers) == expected
    assert len(answers) == 4


def test_failed_candidates_build_no_terms(monkeypatch):
    """1,000 clauses that pass the index but fail head unification
    construct no Var and no Struct; they still take their fresh ids."""
    source = "\n".join(f"p(X, b{i})." for i in range(1000))
    program = Program.from_source(source)
    OrTree(program, "p(a, c)").expand(0)  # compile the templates
    tree = OrTree(program, "p(a, c)")
    built = {"Var": 0, "Struct": 0}
    for cls in (Var, Struct):
        init = cls.__init__

        def counting(self, *args, _init=init, _name=cls.__name__, **kw):
            built[_name] += 1
            _init(self, *args, **kw)

        monkeypatch.setattr(cls, "__init__", counting)
    before = take_ids(1)[0]
    assert tree.expand(0) == []
    after = take_ids(1)[0]
    assert built == {"Var": 0, "Struct": 0}
    assert after - before == 1000 + 1


def test_threads_never_share_a_fresh_id(monkeypatch):
    """Two threads expanding at once take every id from the one shared
    counter, so no id is handed out twice."""
    taken: list[int] = []

    class Recording:
        def __init__(self, inner):
            self.inner = inner

        def __iter__(self):
            return self

        def __next__(self):
            vid = next(self.inner)
            taken.append(vid)
            return vid

    monkeypatch.setattr(terms_mod, "_VAR_COUNTER", Recording(terms_mod._VAR_COUNTER))
    seen: list[set[int]] = [set(), set()]

    def work(ix: int) -> None:
        if ix == 0:
            tree = OrTree(nqueens_program(4), nqueens_query(), max_depth=1024)
        else:
            tree = OrTree(nrev_program(), nrev_query(12)[0], max_depth=1024)
        tree.expand_all()
        for node in tree.nodes:
            for t in node.goals + node.answer:
                seen[ix].update(v.id for v in t.walk() if isinstance(v, Var))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    assert len(taken) == len(set(taken))
    assert seen[0] and seen[1]
    assert seen[0] | seen[1] <= set(taken)
    assert not seen[0] & seen[1]


def test_tree_records_have_no_instance_dict():
    tree = OrTree(Program.from_source("p(a).\np(b).\n"), "p(X)")
    tree.expand(0)
    assert not hasattr(tree.node(1), "__dict__")
    assert not hasattr(tree.arcs[0], "__dict__")
    assert isinstance(tree.node(1), OrNode) and isinstance(tree.arcs[0], OrArc)
