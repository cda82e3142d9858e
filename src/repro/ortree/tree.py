"""The explicit OR-tree of section 2 (figure 3).

Every node stands for a *resolvent*: the remaining goal list and the
query instance (the answer) under its chain's substitution.  The root
holds the query; expanding a node performs one resolution step on its
selected goal (the leftmost, unless a selection rule says otherwise),
producing one child per matching clause (the OR fan-out).  A node with
an empty resolvent is a **solution**; a node whose selected goal
matches nothing is a **failure** leaf.

Bindings live in an environment and are resolved on demand, as in the
environment-based Andorra machines.  A child keeps its parent's goals
and answer as they were built: its goal tuple is the step's body
followed by the parent's remaining goals, and its answer is the
parent's answer tuple itself.  Only an OPEN node owns an environment:
a flat :class:`Bindings` with every binding made along its chain, plus
a count of the occurrences of each unbound variable in its resolved
goals and answer.  Expanding a node hands both to its last open child,
which takes them over in place and adds its own step.  The other open
children keep only their step and share one copy of the counts; each
builds its environment from its chain's steps when it is expanded
itself, so a sibling the search never reaches holds nothing of its
chain.  An expanded node keeps only its step's bindings.

On the search path only two things are resolved: the selected goal,
unless the step that made the node built it (a step's body comes out
resolved), and the answer, once, when a solution is made.
``OrNode.goals``, ``answer`` and ``selected_goal`` are the resolved view
for every other reader; they resolve through the node's environment or,
once it is expanded, through the step bindings of its chain.

Copying: a step pays for the clauses that match and for the terms it
binds.  Each clause is compiled once, on first use, into a template
whose variables are numbered slots, with a head match and a body build
generated for its shape; the selected goal is matched against the
template head directly, so a candidate that fails builds no term (it
still takes the fresh variable ids renaming would have, so ids come in
the same sequence).  For a match, each slot left unbound gets one fresh
variable, each slot the body uses is resolved once, and the body is
built from those values; the child that takes the environment over
counts the body's variables from the same values and their static
occurrence counts.  A determinate builtin runs as one call that binds
into the step's bindings.  ``words_copied`` is the §6 model's count: the
words a copying machine writes into each child, the full size of its
resolved goals and answer.  It is computed from sizes, without building
the copy: the parent's size, less the selected goal, plus the body,
plus, for each variable the step binds, its occurrences in the rest
and the answer times the size its binding adds.

Each tree arc is labeled with an :class:`ArcKey` identifying the
*database pointer* it crossed (section 5 stores weights "on pointers in
the database", figure 4).  Two policies are provided:

* ``pointer`` (default): ``(caller clause id, literal index, callee
  clause id)`` — exactly the named weighted pointers of figure 4.  The
  query acts as pseudo-clause ``-1``.
* ``goal``: ``(canonical goal term, callee clause id)`` — merges arcs
  with identical (renamed) goals across callers, satisfying section 4's
  requirement 1 literally (the two ``(sam)-f->(larry)`` arcs of figure 3
  share one key).

A key depends only on the program, so a tree builds each pointer key,
and each clause's body goal sources, once, on first use; equal keys in
one tree are one object.

Bounds: ``child.bound = parent.bound + weight(arc)`` — monotonically
non-decreasing along any chain, as branch and bound requires (§3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from operator import is_
from typing import Callable, NamedTuple, Optional, Sequence

from ..logic.builtins import BUILTINS, DETERMINATE, BuiltinError, call_builtin, is_builtin
from ..logic.parser import parse_query
from ..logic.program import Program
from ..logic.terms import Atom, Struct, Term, Var, skip_ids, term_vars
from ..logic.unify import Bindings, unify

__all__ = ["ArcKey", "NodeStatus", "OrNode", "OrArc", "OrTree", "canonical_goal"]


class ArcKey(NamedTuple):
    """Identity of a database pointer crossed by a tree arc.

    ``kind`` is ``"pointer"``, ``"goal"`` or ``"builtin"``; ``key`` is
    the hashable identity within that kind.  A tuple, so it hashes and
    compares in C, and equals the plain tuple ``(kind, key)``.
    """

    kind: str
    key: tuple

    def __str__(self) -> str:
        return f"{self.kind}:{self.key}"


class NodeStatus(enum.Enum):
    OPEN = "open"  # not yet expanded
    EXPANDED = "expanded"  # children generated
    SOLUTION = "solution"  # empty resolvent
    FAILURE = "failure"  # selected goal matched nothing


QUERY_CLAUSE_ID = -1

#: a step's bindings as (variable id, value) pairs: lighter than a dict
#: for the one or two a step usually makes
Step = tuple[tuple[int, Term], ...]

#: control constructs the tree runs itself
_CONTROL = frozenset({("\\+", 1), ("call", 1), ("findall", 3)})
#: the arc key of each builtin and control step, built once
_BUILTIN_KEYS = {ind: ArcKey("builtin", (ind,)) for ind in (*BUILTINS, *_CONTROL)}


def canonical_goal(goal: Term) -> Term:
    """Rename ``goal``'s variables to a canonical sequence for arc keys."""
    mapping: dict[int, Var] = {}
    counter = [0]

    def go(t: Term) -> Term:
        if isinstance(t, Var):
            nv = mapping.get(t.id)
            if nv is None:
                counter[0] += 1
                nv = Var(f"_C{counter[0]}", vid=-counter[0])
                mapping[t.id] = nv
            return nv
        if isinstance(t, Struct) and not t.ground:
            return Struct(t.functor, tuple(go(a) for a in t.args))
        return t

    return go(goal)


def _count_vars(term: Term, occ: dict[int, int], k: int) -> None:
    """Add ``k`` to ``occ`` for each occurrence of a variable in
    ``term``; a variable whose count reaches 0 is dropped."""
    if isinstance(term, Var):
        n = occ.get(term.id, 0) + k
        if n:
            occ[term.id] = n
        else:
            del occ[term.id]
    elif not term.ground:
        for a in term.args:  # type: ignore[attr-defined]
            if not a.ground:
                _count_vars(a, occ, k)


def _advance(
    occ: dict[int, int],
    step: Optional[Step],
    body: tuple[Term, ...],
    values: Optional[list] = None,
    counts: Optional[tuple[tuple[int, int], ...]] = None,
) -> None:
    """Move ``occ``, a node's counts less its selected goal, on to a
    child: each variable the child's step binds gives way to its
    binding's variables, and the body's variables come in — read from
    the slot ``values`` times their static ``counts`` when the body was
    built from a clause template, else from the body goals."""
    if step:
        for vid, val in step:
            n = occ.pop(vid)
            if not val.ground:
                _count_vars(val, occ, n)
    if counts is None:
        for g in body:
            if not g.ground:
                _count_vars(g, occ, 1)
        return
    for i, k in counts:
        val = values[i]  # type: ignore[index]
        if not val.ground:
            _count_vars(val, occ, k)


def _resolved(terms: tuple[Term, ...], b: Bindings) -> tuple[Term, ...]:
    """``terms`` resolved through ``b``; the same tuple when nothing changed."""
    out = tuple(map(b.resolve, terms))
    return terms if all(map(is_, out, terms)) else out


#: a child made by the expansion in progress: the node, its body, and,
#: for a body built from a clause template, the slot values and counts
_Made = tuple["OrNode", tuple[Term, ...], Optional[list], Optional[tuple[tuple[int, int], ...]]]


@dataclass(slots=True)
class OrArc:
    """A tree arc: parent --(database pointer)--> child."""

    parent: int
    child: int
    key: ArcKey
    weight: float  # weight used when the child was generated


@dataclass(slots=True, eq=False)
class OrNode:
    """One node of the OR-tree.

    ``pending`` and ``pending_answer`` are the resolvent and the query
    instance as they were built; ``goals`` and ``answer`` resolve them
    under the bindings in force at this node.  ``goal_sources`` tracks,
    per remaining goal, which clause and literal position it came from
    (for pointer arc keys).  ``size`` is the symbol count of the
    resolved goals and answer together.

    ``step`` holds the bindings of the step that made this node, on the
    variables still in its resolvent, as (variable id, value) pairs;
    ``ready`` counts the leading pending goals already resolved.  An
    OPEN node that owns an environment holds every binding of its chain
    in ``env`` and the occurrences of each unbound variable in its
    resolved goals and answer in ``occ``; expanding the node hands both
    to its children.  An open node that does not own one yet shares, in
    ``occ``, its parent's counts less the parent's selected goal.  A
    solution's answer is resolved when the node is made.
    """

    nid: int
    parent: Optional[int]
    pending: tuple[Term, ...]
    goal_sources: tuple[tuple[int, int], ...]  # (clause id, literal index)
    pending_answer: tuple[Term, ...]
    depth: int
    bound: float = 0.0
    status: NodeStatus = NodeStatus.OPEN
    arc: Optional[OrArc] = None  # arc from parent
    children: list[int] = field(default_factory=list)
    size: int = 0
    up: Optional["OrNode"] = field(default=None, repr=False)
    step: Optional[Step] = field(default=None, repr=False)
    ready: int = 0
    env: Optional[Bindings] = field(default=None, repr=False)
    occ: Optional[dict[int, int]] = field(default=None, repr=False)

    @property
    def is_leaf_solution(self) -> bool:
        return self.status is NodeStatus.SOLUTION

    @property
    def is_failure(self) -> bool:
        return self.status is NodeStatus.FAILURE

    def _scope(self) -> Bindings:
        """The bindings in force at this node: its environment if it
        owns one, else the step bindings of its chain."""
        if self.env is not None:
            return self.env
        b = Bindings()
        node: Optional[OrNode] = self
        while node is not None:
            if node.step:
                b.map.update(node.step)
            node = node.up
        return b

    @property
    def goals(self) -> tuple[Term, ...]:
        """The resolvent."""
        if not self.pending:
            return self.pending
        return _resolved(self.pending, self._scope())

    @property
    def answer(self) -> tuple[Term, ...]:
        """The query instance under this node's substitution."""
        if self.status is NodeStatus.SOLUTION:
            return self.pending_answer
        return _resolved(self.pending_answer, self._scope())

    @property
    def selected_goal(self) -> Optional[Term]:
        if not self.pending:
            return None
        return self._scope().resolve(self.pending[0])


class OrTree:
    """OR-tree construction and single-step expansion.

    Parameters
    ----------
    program:
        The knowledge base.
    query:
        Source text or goal terms.
    weight_fn:
        Maps an :class:`ArcKey` to the weight used for child bounds.
        Defaults to 0 (uniform; degenerates best-first to breadth-ish
        order).  The B-LOG engine plugs the weight store in here.
    arc_key_policy:
        ``"pointer"`` (figure 4 pointers) or ``"goal"`` (canonical goal
        merging, section 4 requirement 1).
    max_depth:
        Expansion depth bound; nodes at the bound fail (counted).
    """

    def __init__(
        self,
        program: Program,
        query: str | Sequence[Term],
        weight_fn: Optional[Callable[[ArcKey], float]] = None,
        arc_key_policy: str = "pointer",
        max_depth: int = 256,
        pair_weight_fn: Optional[
            Callable[[Optional[ArcKey], ArcKey], float]
        ] = None,
        selection_rule: str = "leftmost",
    ):
        if arc_key_policy not in ("pointer", "goal"):
            raise ValueError(f"unknown arc key policy {arc_key_policy!r}")
        if selection_rule not in ("leftmost", "most-bound", "fewest-candidates"):
            raise ValueError(f"unknown selection rule {selection_rule!r}")
        self.program = program
        self.weight_fn = weight_fn or (lambda key: 0.0)
        # conditional bound (§5 outlook): weight of an arc given the arc
        # before it; overrides weight_fn when set
        self.pair_weight_fn = pair_weight_fn
        self.arc_key_policy = arc_key_policy
        # computation rule: which resolvent goal to resolve next.
        # "leftmost" is Prolog/§2; "most-bound" prefers the most
        # instantiated goal; "fewest-candidates" the most selective one
        # (the dataflow-ordering intuition of §7 / Conery's ordering).
        self.selection_rule = selection_rule
        self.max_depth = max_depth
        goals = parse_query(query) if isinstance(query, str) else tuple(query)
        self.query = goals
        self.query_vars = {
            v.name: v for g in goals for v in term_vars(g) if v.name != "_"
        }
        self.nodes: list[OrNode] = []
        self.arcs: list[OrArc] = []
        self.expansions = 0
        self.generated = 0
        self.depth_cutoffs = 0
        # the §6 model's copy traffic: total term symbols a copying
        # machine would write into child resolvents/answers — the chain
        # sprouting load the multiply-write memory is designed to absorb
        self.words_copied = 0
        # the expansion in progress: its resolved selected goal and the
        # children made so far, with their bodies
        self._selected: Optional[Term] = None
        self._made: list[_Made] = []
        # facts of the program, built on first use: the pointer arc key of
        # each (caller clause, literal index) and callee, and each
        # clause's body goal sources
        self._pointer_keys: dict[tuple[int, int], dict[int, ArcKey]] = {}
        self._body_sources: dict[int, tuple[tuple[int, int], ...]] = {}
        sources = tuple((QUERY_CLAUSE_ID, i) for i in range(len(goals)))
        root = OrNode(
            nid=0,
            parent=None,
            pending=goals,
            goal_sources=sources,
            pending_answer=goals,
            depth=0,
            size=2 * sum(g.size for g in goals),
            ready=len(goals),
        )
        if goals:
            root.env = Bindings()
            root.occ = {}
            for g in goals:
                _count_vars(g, root.occ, 2)  # once in the goals, once in the answer
        else:
            root.status = NodeStatus.SOLUTION
        self.nodes.append(root)

    # -- accessors -----------------------------------------------------------
    @property
    def root(self) -> OrNode:
        return self.nodes[0]

    def node(self, nid: int) -> OrNode:
        return self.nodes[nid]

    def chain(self, nid: int) -> list[OrNode]:
        """Nodes from the root down to ``nid`` inclusive."""
        out = []
        node: Optional[OrNode] = self.nodes[nid]
        while node is not None:
            out.append(node)
            node = node.up
        out.reverse()
        return out

    def chain_arcs(self, nid: int) -> list[OrArc]:
        """Arcs along the chain from the root to ``nid``."""
        out = []
        node = self.nodes[nid]
        while node.arc is not None:
            out.append(node.arc)
            node = node.up  # type: ignore[assignment]
        out.reverse()
        return out

    def solutions(self) -> list[OrNode]:
        return [n for n in self.nodes if n.status is NodeStatus.SOLUTION]

    def failures(self) -> list[OrNode]:
        return [n for n in self.nodes if n.status is NodeStatus.FAILURE]

    def solution_answer(self, node: OrNode) -> dict[str, Term]:
        """Named query-variable bindings at a solution node."""
        b = Bindings()
        for q, a in zip(self.query, node.answer):
            if not unify(q, a, b):  # pragma: no cover - answers are instances
                raise RuntimeError("answer does not unify with query")
        return {name: b.resolve(v) for name, v in self.query_vars.items()}

    # -- expansion -------------------------------------------------------------
    def expand(self, nid: int) -> list[int]:
        """Perform one resolution step at node ``nid``.

        Returns the ids of the generated children.  Terminal or already
        expanded nodes return their recorded children.
        """
        node = self.nodes[nid]
        if node.status is not NodeStatus.OPEN:
            return list(node.children)
        if node.env is None:
            self._own_env(node)
        if self.selection_rule != "leftmost" and len(node.pending) > 1:
            self._apply_selection(node)
        if node.depth >= self.max_depth:
            self.depth_cutoffs += 1
            node.status = NodeStatus.FAILURE
            node.env = node.occ = None
            return []
        self.expansions += 1
        goal = node.pending[0]
        if not node.ready:
            goal = node.env.resolve(goal)  # type: ignore[union-attr]
        if isinstance(goal, Var):
            raise BuiltinError("cannot call an unbound variable goal")
        self._selected = goal
        self._made.clear()
        try:
            indicator = goal.indicator
        except TypeError:
            indicator = None
        key = _BUILTIN_KEYS.get(indicator)  # type: ignore[arg-type]
        # from here on the node's counts are those of its rest and answer
        _count_vars(goal, node.occ, -1)  # type: ignore[arg-type]
        try:
            if key is None:
                children = self._expand_user(node, goal)
            elif indicator in _CONTROL:
                children = self._expand_control(node, goal, key)
            else:
                children = self._expand_builtin(node, goal, key)
        except BaseException:
            # a step that raised leaves the node open and as it was
            _count_vars(goal, node.occ, 1)  # type: ignore[arg-type]
            raise
        node.status = NodeStatus.EXPANDED if children else NodeStatus.FAILURE
        node.children = children
        self._hand_over(node)
        return list(children)

    def _hand_over(self, node: OrNode) -> None:
        """Give the expanded ``node``'s environment to its children.

        The last open child takes it over in place and adds its step.
        The other open children keep only their step and share one copy
        of the node's counts until they are expanded themselves
        (:meth:`_own_env`).  A solution resolves its answer and keeps
        no environment.
        """
        env, occ = node.env, node.occ
        node.env = node.occ = None
        made = self._made
        if not made:
            return
        assert env is not None and occ is not None
        taker: Optional[_Made] = None
        shared: Optional[dict[int, int]] = None
        for entry in made:
            child = entry[0]
            if child.status is NodeStatus.OPEN:
                if taker is not None:
                    # an earlier open child is not the last: it shares
                    if shared is None:
                        shared = dict(occ)
                    taker[0].occ = shared
                taker = entry
            else:
                step = child.step or ()
                env.map.update(step)
                child.pending_answer = _resolved(child.pending_answer, env)
                for vid, _ in step:
                    del env.map[vid]
        if taker is not None:
            child, body, values, counts = taker
            _advance(occ, child.step, body, values, counts)
            if child.step:
                env.map.update(child.step)
            child.env, child.occ = env, occ
        made.clear()

    def _own_env(self, node: OrNode) -> None:
        """Give the open ``node``, which has no environment yet, its own:
        the step bindings of its chain, and its parent's counts moved on
        by its step and body."""
        parent = node.up
        assert parent is not None and node.occ is not None
        occ = dict(node.occ)
        body = node.pending[: len(node.pending) - len(parent.pending) + 1]
        _advance(occ, node.step, body)
        node.env = node._scope()
        node.occ = occ

    def _apply_selection(self, node: OrNode) -> None:
        """Move the goal the computation rule picks to the front.

        Only *user-predicate* goals are candidates — builtins and
        control constructs execute exactly when they become leftmost,
        so their producers (which stay ahead of them, since unselected
        goals keep their relative order) are always resolved first.
        The selected goal moves; everything else keeps its order, which
        preserves soundness of builtin dataflow and completeness of the
        conjunction (modulo the depth bound).  The rules read the
        resolved goals, which the node keeps.
        """
        goals = node.goals
        node.pending = goals
        node.ready = len(goals)
        candidates: list[int] = []
        for ix, g in enumerate(goals):
            if isinstance(g, Var):
                continue
            if is_builtin(g):
                continue
            if isinstance(g, Struct) and (g.functor, g.arity) in _CONTROL:
                continue
            if isinstance(g, Atom) and g.name == "!":
                continue
            candidates.append(ix)
        if not candidates or candidates[0] != 0:
            # the leftmost goal is a builtin/control: it must run first
            return
        if self.selection_rule == "most-bound":
            def score(ix: int) -> tuple:
                g = goals[ix]
                if not isinstance(g, Struct):
                    return (0.0, ix)
                ground = sum(1 for a in g.args if a.ground)
                return (-ground / g.arity, ix)
        else:  # fewest-candidates
            def score(ix: int) -> tuple:
                return (len(self.program.candidates(goals[ix])), ix)
        best = min(candidates, key=score)
        if best == 0:
            return
        order = [best] + [i for i in range(len(goals)) if i != best]
        node.pending = tuple(goals[i] for i in order)
        node.goal_sources = tuple(node.goal_sources[i] for i in order)

    def _make_child(
        self,
        node: OrNode,
        body: tuple[Term, ...],
        body_sources: tuple[tuple[int, int], ...],
        key: ArcKey,
        b: Optional[Bindings] = None,
        values: Optional[list] = None,
        counts: Optional[tuple[tuple[int, int], ...]] = None,
    ) -> int:
        """Add the child that replaces ``node``'s selected goal by the
        resolved ``body``.  ``b`` holds the step's bindings; without it
        the step bound no variable of the resolvent.  A body built from
        a clause template comes with its slot ``values`` and ``counts``."""
        size = node.size - self._selected.size  # type: ignore[union-attr]
        for g in body:
            size += g.size
        step: Optional[list[tuple[int, Term]]] = None
        if b is not None:
            occ = node.occ
            assert occ is not None
            bmap = b.map
            for vid in b.trail:
                # occurrences in the rest and the answer; a variable that
                # occurred only in the selected goal is gone with it.  (A
                # variable the step binds is on its trail: filled slots,
                # the only entries that are not, are no goal variables.)
                n = occ.get(vid)
                if n is None:
                    continue
                val = bmap[vid]
                if not val.ground:
                    val = b.resolve(val)
                size += n * (val.size - 1)
                if step is None:
                    step = []
                step.append((vid, val))
        self.words_copied += size
        if self.pair_weight_fn is not None:
            prev_key = node.arc.key if node.arc is not None else None
            weight = self.pair_weight_fn(prev_key, key)
        else:
            weight = self.weight_fn(key)
        pending = body + node.pending[1:]
        nid = len(self.nodes)
        arc = OrArc(node.nid, nid, key, weight)
        child = OrNode(
            nid,
            node.nid,
            pending,
            body_sources + node.goal_sources[1:],
            node.pending_answer,
            node.depth + 1,
            node.bound + weight,
            NodeStatus.OPEN if pending else NodeStatus.SOLUTION,
            arc,
            [],
            size,
            node,
            tuple(step) if step else None,
            len(body) if step else len(body) + max(node.ready - 1, 0),
        )
        self.nodes.append(child)
        self.arcs.append(arc)
        self.generated += 1
        self._made.append((child, body, values, counts))
        return nid

    def _expand_user(self, node: OrNode, goal: Term) -> list[int]:
        children: list[int] = []
        source = node.goal_sources[0]
        keys: Optional[dict[int, ArcKey]] = None
        if self.arc_key_policy == "pointer":
            keys = self._pointer_keys.get(source)
            if keys is None:
                keys = self._pointer_keys[source] = {}
        else:
            canonical = canonical_goal(goal)
        program = self.program
        for cid in program.candidates(goal):
            template = program.clause(cid).template
            b = Bindings()
            if not template.match(goal, b):
                skip_ids(len(template.slots))
                continue
            values = template.values(b.map)
            body = template.build(values)
            if keys is not None:
                key = keys.get(cid)
                if key is None:
                    key = keys[cid] = ArcKey("pointer", (*source, cid))
            else:
                key = ArcKey("goal", (canonical, cid))
            body_sources = self._body_sources.get(cid)
            if body_sources is None:
                body_sources = self._body_sources[cid] = tuple(
                    (cid, i) for i in range(len(body))
                )
            # every slot is bound now; any other entry binds a goal variable
            touched = len(b.map) > len(template.slots)
            children.append(self._make_child(
                node, body, body_sources, key, b if touched else None, values, template.counts
            ))
        return children

    def _expand_control(self, node: OrNode, goal: Term, key: ArcKey) -> list[int]:
        """Engine-level control: ``\\+``, ``call/1``, ``findall/3``.

        These need recursive solving; the sub-search runs on the
        sequential engine (its work is *not* charged to this tree's
        expansion counters — a deliberate simplification: the paper's
        model treats each decision arc as atomic).
        """
        from ..logic.solver import Solver

        assert isinstance(goal, Struct)
        if goal.functor == "call":
            # transparent: the goal is replaced by its argument, which
            # keeps the goal's own source; only the call/1 wrapper goes
            return [self._make_child(node, (goal.args[0],), node.goal_sources[:1], key)]
        solver = Solver(self.program, max_depth=max(4, self.max_depth - node.depth))
        if goal.functor == "\\+":
            if solver.succeeds((goal.args[0],)):
                return []
            return [self._make_child(node, (), (), key)]
        # findall/3
        template, sub, out = goal.args
        collected: list[Term] = []
        bindings = Bindings()
        for _ in solver._solve((sub,), bindings, 0, [False]):
            collected.append(bindings.resolve(template))
        bindings.undo_to(0)
        from ..logic.terms import make_list

        b = Bindings()
        if not unify(out, make_list(collected), b):
            return []
        return [self._make_child(node, (), (), key, b if b.map else None)]

    def _expand_builtin(self, node: OrNode, goal: Term, key: ArcKey) -> list[int]:
        b = Bindings()
        test = DETERMINATE.get(key.key[0])
        try:
            if test is not None:
                if not test(goal.args if isinstance(goal, Struct) else (), b):
                    return []
                return [self._make_child(node, (), (), key, b if b.map else None)]
            children: list[int] = []
            # a child copies what it needs of ``b`` before the builtin
            # moves on to its next solution
            for _ in call_builtin(goal, b):
                children.append(self._make_child(node, (), (), key, b if b.map else None))
        except BuiltinError:
            return []
        return children

    # -- whole-tree helpers ------------------------------------------------------
    def expand_all(self, limit: int = 100_000) -> None:
        """Fully develop the tree, breadth-first (for figures/tests)."""
        frontier = [0]
        while frontier:
            if len(self.nodes) > limit:
                raise RuntimeError(f"OR-tree exceeded {limit} nodes")
            nxt: list[int] = []
            for nid in frontier:
                nxt.extend(self.expand(nid))
            frontier = nxt

    def explain_chain(self, nid: int) -> list[str]:
        """Human-readable resolution steps from the root to ``nid``:
        one line per arc with the goal resolved, the clause used, and
        the arc weight — the answer's provenance."""
        lines: list[str] = []
        chain = self.chain(nid)
        for parent, child in zip(chain, chain[1:]):
            goal = parent.selected_goal
            arc = child.arc
            assert arc is not None
            if arc.key.kind == "pointer":
                _caller, _lit, callee = arc.key.key
                via = f"clause {callee}: {self.program.clause(callee)}"
            elif arc.key.kind == "goal":
                via = f"clause {arc.key.key[1]}"
            else:
                via = f"builtin {arc.key.key[0][0]}/{arc.key.key[0][1]}"
            lines.append(
                f"resolve {goal}  via {via}  [weight {arc.weight:g}, "
                f"bound {child.bound:g}]"
            )
        terminal = chain[-1]
        if terminal.status is NodeStatus.SOLUTION:
            lines.append("=> solution")
        elif terminal.status is NodeStatus.FAILURE:
            lines.append(f"=> failure at {terminal.selected_goal}")
        return lines

    def render(self, max_goal_len: int = 48) -> str:
        """ASCII rendering of the tree (figure-3 style)."""
        lines: list[str] = []

        def go(nid: int, prefix: str) -> None:
            n = self.nodes[nid]
            label = ", ".join(str(g) for g in n.goals) or "□"
            if len(label) > max_goal_len:
                label = label[: max_goal_len - 3] + "..."
            tag = {
                NodeStatus.SOLUTION: " [SOLUTION]",
                NodeStatus.FAILURE: " [FAILURE]",
                NodeStatus.OPEN: " [open]",
            }.get(n.status, "")
            w = f" (bound={n.bound:g})" if n.bound else ""
            lines.append(f"{prefix}{label}{tag}{w}")
            for c in n.children:
                go(c, prefix + "  ")

        go(0, "")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"OrTree({len(self.nodes)} nodes, {len(self.solutions())} solutions, "
            f"{len(self.failures())} failures)"
        )
