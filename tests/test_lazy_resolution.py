"""Differential for lazy resolution in the OR-tree.

``OrTree`` leaves a child's goals and answer unresolved: only open
nodes own an environment, expanded nodes keep their step's bindings,
only the selected goal (and a solution's answer) is resolved, and
``words_copied`` is computed from sizes.  The eager expansion it
replaced resolved every child's whole resolvent and answer through the
step's bindings.  That expansion is kept below, verbatim apart from its
own node record, as ``EagerTree``; ``test_clause_templates.py`` cannot
serve as the reference, because its rename-first tree inherits the
lazy ``_make_child``.

Every step must agree with the reference on each child's resolved
goals and answer (``repr`` shows variable ids, so sharing and the
fresh-id sequence agree too), ``goal_sources``, arc key, ``size`` and
bound, on the id counter's position and on ``words_copied``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tracemalloc
import zlib
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import pytest

from repro.core import BLogConfig, BLogEngine
from repro.logic import Program
from repro.logic.builtins import BuiltinError, call_builtin, is_builtin
from repro.logic.terms import (
    Atom,
    Struct,
    Term,
    Var,
    make_list,
    reset_var_counter,
    skip_ids,
    take_ids,
    term_size,
)
from repro.logic.unify import Bindings, unify
from repro.ortree import OrTree
from repro.ortree.tree import ArcKey, NodeStatus, OrArc, canonical_goal
from repro.workloads import nqueens_program, nqueens_query, nrev_program, nrev_query

from .test_clause_templates import random_program

# -- the eager expansion, as it was ------------------------------------------------


@dataclass(slots=True)
class EagerNode:
    """The node record before lazy resolution: resolvent and answer held
    resolved."""

    nid: int
    parent: Optional[int]
    goals: tuple[Term, ...]
    goal_sources: tuple[tuple[int, int], ...]
    answer: tuple[Term, ...]
    depth: int
    bound: float = 0.0
    status: NodeStatus = NodeStatus.OPEN
    arc: Optional[OrArc] = None
    children: list[int] = field(default_factory=list)
    size: int = 0

    @property
    def selected_goal(self) -> Optional[Term]:
        return self.goals[0] if self.goals else None


class EagerTree(OrTree):
    """Every node holds its resolvent and answer resolved."""

    def __init__(self, program, query, **kw):
        super().__init__(program, query, **kw)
        goals = self.query
        root = EagerNode(
            nid=0,
            parent=None,
            goals=goals,
            goal_sources=tuple((-1, i) for i in range(len(goals))),
            answer=goals,
            depth=0,
            size=2 * sum(g.size for g in goals),
        )
        if not goals:
            root.status = NodeStatus.SOLUTION
        self.nodes[0] = root

    def chain(self, nid: int) -> list:
        out = []
        cur: Optional[int] = nid
        while cur is not None:
            n = self.nodes[cur]
            out.append(n)
            cur = n.parent
        out.reverse()
        return out

    def chain_arcs(self, nid: int) -> list[OrArc]:
        return [n.arc for n in self.chain(nid) if n.arc is not None]

    def expand(self, nid: int) -> list[int]:
        node = self.nodes[nid]
        if node.status is not NodeStatus.OPEN:
            return list(node.children)
        if self.selection_rule != "leftmost" and len(node.goals) > 1:
            self._apply_selection(node)
        goal = node.selected_goal
        assert goal is not None
        if node.depth >= self.max_depth:
            self.depth_cutoffs += 1
            node.status = NodeStatus.FAILURE
            return []
        self.expansions += 1
        if isinstance(goal, Var):
            raise BuiltinError("cannot call an unbound variable goal")
        if isinstance(goal, Struct) and (goal.functor, goal.arity) in (
            ("\\+", 1),
            ("call", 1),
            ("findall", 3),
        ):
            children = self._expand_control(node, goal)
        elif is_builtin(goal):
            children = self._expand_builtin(node, goal)
        else:
            children = self._expand_user(node, goal)
        node.status = NodeStatus.EXPANDED if children else NodeStatus.FAILURE
        node.children = children
        return list(children)

    def _apply_selection(self, node) -> None:
        candidates: list[int] = []
        for ix, g in enumerate(node.goals):
            if isinstance(g, Var):
                continue
            if is_builtin(g):
                continue
            if isinstance(g, Struct) and (g.functor, g.arity) in (
                ("\\+", 1),
                ("call", 1),
                ("findall", 3),
            ):
                continue
            if isinstance(g, Atom) and g.name == "!":
                continue
            candidates.append(ix)
        if not candidates or candidates[0] != 0:
            return
        if self.selection_rule == "most-bound":
            def score(ix: int) -> tuple:
                g = node.goals[ix]
                if not isinstance(g, Struct):
                    return (0.0, ix)
                ground = sum(1 for a in g.args if a.ground)
                return (-ground / g.arity, ix)
        else:
            def score(ix: int) -> tuple:
                return (len(self.program.candidates(node.goals[ix])), ix)
        best = min(candidates, key=score)
        if best == 0:
            return
        order = [best] + [i for i in range(len(node.goals)) if i != best]
        node.goals = tuple(node.goals[i] for i in order)
        node.goal_sources = tuple(node.goal_sources[i] for i in order)

    def _make_child(self, node, body, body_sources, key, b=None) -> int:
        rest = node.goals[1:]
        answer = node.answer
        if b is None:
            size = node.size - term_size(node.goals[0])
        else:
            rest = tuple(map(b.resolve, rest))
            answer = tuple(map(b.resolve, answer))
            size = sum(map(term_size, rest)) + sum(map(term_size, answer))
        size += sum(map(term_size, body))
        self.words_copied += size
        new_goals = body + rest
        if self.pair_weight_fn is not None:
            prev_key = node.arc.key if node.arc is not None else None
            weight = self.pair_weight_fn(prev_key, key)
        else:
            weight = self.weight_fn(key)
        nid = len(self.nodes)
        child = EagerNode(
            nid=nid,
            parent=node.nid,
            goals=new_goals,
            goal_sources=body_sources + node.goal_sources[1:],
            answer=answer,
            depth=node.depth + 1,
            bound=node.bound + weight,
            size=size,
        )
        arc = OrArc(parent=node.nid, child=nid, key=key, weight=weight)
        child.arc = arc
        if not new_goals:
            child.status = NodeStatus.SOLUTION
        self.nodes.append(child)
        self.arcs.append(arc)
        self.generated += 1
        return nid

    def _expand_user(self, node, goal) -> list[int]:
        children: list[int] = []
        caller_id, literal_ix = node.goal_sources[0]
        program = self.program
        for cid in program.candidates(goal):
            template = program.clause(cid).template
            b = Bindings()
            if not unify(goal, template.head, b):
                skip_ids(len(template.slots))
                continue
            template.fill(b.map)
            body = tuple(map(b.resolve, template.body))
            if self.arc_key_policy == "pointer":
                key = ArcKey("pointer", (caller_id, literal_ix, cid))
            else:
                key = ArcKey("goal", (canonical_goal(goal), cid))
            body_sources = tuple((cid, i) for i in range(len(body)))
            touched = len(b.map) > len(template.slots)
            children.append(
                self._make_child(node, body, body_sources, key, b if touched else None)
            )
        return children

    def _expand_control(self, node, goal) -> list[int]:
        from repro.logic.solver import Solver

        key = ArcKey("builtin", (goal.indicator,))
        if goal.functor == "call":
            child_node = EagerNode(
                nid=len(self.nodes),
                parent=node.nid,
                goals=(goal.args[0],) + node.goals[1:],
                goal_sources=node.goal_sources,
                answer=node.answer,
                depth=node.depth + 1,
                bound=node.bound + self.weight_fn(key),
                size=node.size - 1,
            )
            arc = OrArc(node.nid, child_node.nid, key, self.weight_fn(key))
            child_node.arc = arc
            if not child_node.goals:
                child_node.status = NodeStatus.SOLUTION
            self.nodes.append(child_node)
            self.arcs.append(arc)
            self.generated += 1
            return [child_node.nid]
        solver = Solver(self.program, max_depth=max(4, self.max_depth - node.depth))
        if goal.functor == "\\+":
            if solver.succeeds((goal.args[0],)):
                return []
            return [self._make_child(node, (), (), key)]
        template, sub, out = goal.args
        collected: list[Term] = []
        bindings = Bindings()
        for _ in solver._solve((sub,), bindings, 0, [False]):
            collected.append(bindings.resolve(template))
        bindings.undo_to(0)
        b = Bindings()
        if not unify(out, make_list(collected), b):
            return []
        return [self._make_child(node, (), (), key, b if b.map else None)]

    def _expand_builtin(self, node, goal) -> list[int]:
        children: list[int] = []
        b = Bindings()
        key = ArcKey("builtin", (goal.indicator,))
        try:
            solutions = []
            mark = b.mark()
            for _ in call_builtin(goal, b):
                solutions.append(dict(b.map))
            b.undo_to(mark)
            for sol in solutions:
                cb = Bindings()
                cb.map = sol
                children.append(self._make_child(node, (), (), key, cb if sol else None))
        except BuiltinError:
            return []
        return children


# -- the differential ----------------------------------------------------------------


def weight(key: ArcKey) -> float:
    """A fixed weight per arc key, so bounds differ between children."""
    return zlib.crc32(str(key).encode()) % 5


def _image(node) -> tuple:
    return (repr(node.goals), repr(node.answer), node.goal_sources, node.arc.key,
            node.size, node.bound)


def expansion_log(tree_cls, program, query, budget=150, check=None, **kw):
    """Expand breadth-first; log each step's children, the id counter
    and ``words_copied``.  ``check(tree)`` runs after every step."""
    reset_var_counter(10_000)
    tree = tree_cls(program, query, weight_fn=weight, **kw)
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
        log.append((nid, [_image(tree.node(c)) for c in children], take_ids(1)[0],
                    tree.words_copied))
        if check is not None:
            check(tree)
        frontier.extend(children)
    return tree, log


def random_cases():
    for seed in range(12):
        source, queries = random_program(seed)
        program = Program.from_source(source)
        for query in queries:
            yield program, query


WORKLOADS = {
    "queens4": (lambda: nqueens_program(4), nqueens_query(), 2000),
    "nrev12": (nrev_program, nrev_query(12)[0], 2000),
}


@pytest.mark.parametrize("policy", ["pointer", "goal"])
@pytest.mark.parametrize("seed", range(12))
def test_lazy_matches_eager_on_random_programs(seed, policy):
    source, queries = random_program(seed)
    program = Program.from_source(source)
    for query in queries:
        ref_tree, ref = expansion_log(EagerTree, program, query, arc_key_policy=policy,
                                      max_depth=8)
        tree, got = expansion_log(OrTree, program, query, arc_key_policy=policy,
                                  max_depth=8)
        assert got == ref, (source, query)
        assert tree.words_copied == ref_tree.words_copied


@pytest.mark.parametrize("rule", ["leftmost", "most-bound", "fewest-candidates"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_lazy_matches_eager_on_workloads(name, rule):
    factory, query, budget = WORKLOADS[name]
    program = factory()
    for policy in ("pointer", "goal"):
        _, ref = expansion_log(EagerTree, program, query, budget, arc_key_policy=policy,
                               max_depth=1024, selection_rule=rule)
        _, got = expansion_log(OrTree, program, query, budget, arc_key_policy=policy,
                               max_depth=1024, selection_rule=rule)
        assert got == ref
        assert got[-1][1] != "cyclic"


class MovingTree(OrTree):
    """Counts the expansions at which the selection rule moved a goal."""

    moves = 0

    def _apply_selection(self, node) -> None:
        before = node.goal_sources
        super()._apply_selection(node)
        MovingTree.moves += node.goal_sources != before


@pytest.mark.parametrize("rule", ["most-bound", "fewest-candidates"])
def test_lazy_matches_eager_under_selection_rules_on_random_programs(rule, monkeypatch):
    monkeypatch.setattr(MovingTree, "moves", 0)
    for program, query in random_cases():
        _, ref = expansion_log(EagerTree, program, query, 60, max_depth=8,
                               selection_rule=rule)
        _, got = expansion_log(MovingTree, program, query, 60, max_depth=8,
                               selection_rule=rule)
        assert got == ref, query
    assert MovingTree.moves > 0  # the rule really reordered resolvents


# -- ownership and memory -------------------------------------------------------------


def _occurrences(terms) -> Counter:
    return Counter(v.id for t in terms for v in t.walk() if isinstance(v, Var))


def check_ownership(tree: OrTree) -> None:
    """Only open nodes hold an environment or counts, and no two share
    an environment.  An open node that owns an environment owns its
    counts, which match its resolved goals and answer; one that does
    not yet holds only its step and shares its parent's counts, those
    of the parent's goals less the selected one and its answer."""
    envs, owned, shared = set(), set(), set()
    for node in tree.nodes:
        if node.status is not NodeStatus.OPEN:
            assert node.env is None and node.occ is None, node.nid
            continue
        view = node.goals + node.answer
        assert node.size == sum(t.size for t in view)
        assert node.occ is not None, node.nid
        if node.env is None:
            parent = node.up
            assert node.occ == _occurrences(parent.goals[1:] + parent.answer), node.nid
            shared.add(id(node.occ))
            continue
        assert id(node.env) not in envs and id(node.occ) not in owned
        envs.add(id(node.env))
        owned.add(id(node.occ))
        assert node.occ == _occurrences(view), node.nid
    assert not owned & shared


@pytest.mark.parametrize("seed", range(12))
def test_only_open_nodes_own_an_environment(seed):
    source, queries = random_program(seed)
    program = Program.from_source(source)
    for query in queries:
        expansion_log(OrTree, program, query, max_depth=8, check=check_ownership)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_ownership_on_workloads(name):
    factory, query, _ = WORKLOADS[name]
    expansion_log(OrTree, factory(), query, 300, max_depth=1024, check=check_ownership)


def test_a_step_that_raises_leaves_the_node_as_it_was():
    """The sub-search of ``\\+`` raises after the selected goal's
    occurrences were taken off the node's counts; they come back."""
    tree = OrTree(Program.from_source("q(a).\n"), "q(Y), \\+ (X is foo), q(Y)")
    (child,) = tree.expand(0)
    with pytest.raises(BuiltinError):
        tree.expand(child)
    assert tree.node(child).status is NodeStatus.OPEN
    check_ownership(tree)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_expanded_views_match_eager(name):
    """After ``expand_all`` every node is expanded or a leaf, so each
    view is resolved through the node's chain of step bindings."""
    factory, query, _ = WORKLOADS[name]
    program = factory()
    trees = []
    for cls in (EagerTree, OrTree):
        reset_var_counter(10_000)
        tree = cls(program, query, max_depth=1024)
        tree.expand_all()
        trees.append(tree)
    ref, tree = trees
    assert len(tree.nodes) == len(ref.nodes)
    assert not any(n.status is NodeStatus.OPEN for n in tree.nodes)
    for a, b in zip(ref.nodes, tree.nodes):
        assert (repr(b.goals), repr(b.answer), repr(b.selected_goal)) == (
            repr(a.goals), repr(a.answer), repr(a.selected_goal))
        assert b.size == a.size and b.status is a.status
    assert tree.render() == ref.render()
    assert [tree.explain_chain(s.nid) for s in tree.solutions()] == [
        ref.explain_chain(s.nid) for s in ref.solutions()]


def walk_program() -> Program:
    """A chain of 200 steps, each binding a goal variable, that ends in
    300 alternatives: a wide fan-out at the end of a long chain."""
    source = "walk(0, X) :- pick(X), done(X).\n"
    source += "walk(N, X) :- N > 0, M is N - 1, walk(M, X).\n"
    source += "".join(f"pick(p{i}).\n" for i in range(300)) + "done(p299).\n"
    return Program.from_source(source)


MEMORY_CASES = {
    "nrev30": (nrev_program, nrev_query(30)[0]),
    "walk200": (walk_program, "walk(200, X)"),
}


def measure_peak(tree_name: str, name: str) -> int:
    """The lower ``tracemalloc`` peak of two ``keep_tree`` queries: the
    first measurement in a process also pays one-time allocations."""
    import repro.core.engine as engine_mod

    engine_mod.OrTree = {"eager": EagerTree, "lazy": OrTree}[tree_name]
    factory, query = MEMORY_CASES[name]
    program = factory()
    config = BLogConfig(max_depth=1024)
    BLogEngine(program, config).query(query, max_solutions=1)  # compile the templates
    peaks = []
    for _ in range(2):
        tracemalloc.start()
        try:
            result = BLogEngine(program, config).query(query, max_solutions=1, keep_tree=True)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(result.answers) == 1
    return min(peaks)


def _peak_bytes(tree_name: str, name: str) -> int:
    """:func:`measure_peak` in a fresh interpreter: a ``tracemalloc``
    peak counts every allocation in the process, so what ran before in
    this one must not count."""
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join([str(root / "src"), str(root), os.environ.get("PYTHONPATH", "")])
    code = (
        "from tests.test_lazy_resolution import measure_peak\n"
        f"print(measure_peak({tree_name!r}, {name!r}))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=root, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True, timeout=300,
    )
    return int(out.stdout.split()[-1])


@pytest.mark.parametrize("name", sorted(MEMORY_CASES))
def test_tree_memory_no_higher_than_eager(name):
    eager = _peak_bytes("eager", name)
    lazy = _peak_bytes("lazy", name)
    assert lazy <= eager, (lazy, eager)
