"""The explicit OR-tree of section 2 (figure 3).

Every node holds a *resolvent*: the remaining goal list with the
substitution applied and reified (no shared binding store — the
copy-heavy representation the paper's multiply-write memory is designed
for).  The root holds the query; expanding a node performs one
resolution step on its leftmost goal, producing one child per matching
clause (the OR fan-out).  A node with an empty resolvent is a
**solution**; a node whose selected goal matches nothing is a
**failure** leaf.

Copying: a step pays for the clauses that match and for the terms it
binds, nothing else.  Each clause is compiled once, on first use, into
a template whose variables are numbered slots; the selected goal is
unified against the template head directly, so a candidate that fails
builds no term (it still takes the fresh variable ids renaming would
have, so ids come in the same sequence).  For a match, each slot left
unbound gets one fresh variable and the body is built by one resolve
through the bindings.  When the step bound no variable of the goal,
the rest of the resolvent and the answer are shared with the parent as
the same objects; otherwise they are resolved, which rebuilds only the
paths to bound variables.  ``words_copied`` still charges every child
the full logical size of its resolvent and answer, so the §6 traffic
model is unchanged; each node caches that size, so a shared rest costs
nothing to count.

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

Bounds: ``child.bound = parent.bound + weight(arc)`` — monotonically
non-decreasing along any chain, as branch and bound requires (§3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

from ..logic import terms as _terms
from ..logic.builtins import BuiltinError, call_builtin, is_builtin
from ..logic.parser import parse_query
from ..logic.program import Program
from ..logic.terms import Atom, Struct, Term, Var, skip_ids, term_vars
from ..logic.unify import Bindings, unify

__all__ = ["ArcKey", "NodeStatus", "OrNode", "OrArc", "OrTree", "canonical_goal"]


@dataclass(frozen=True, slots=True)
class ArcKey:
    """Identity of a database pointer crossed by a tree arc.

    ``kind`` is ``"pointer"``, ``"goal"`` or ``"builtin"``; ``key`` is
    the hashable identity within that kind.
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


@dataclass(slots=True)
class OrArc:
    """A tree arc: parent --(database pointer)--> child."""

    parent: int
    child: int
    key: ArcKey
    weight: float  # weight used when the child was generated


@dataclass(slots=True)
class OrNode:
    """One node of the OR-tree.

    ``goals`` is the resolvent; ``goal_sources`` tracks, per remaining
    goal, which clause and literal position it came from (for pointer
    arc keys).  ``answer`` is the query instance under this node's
    accumulated substitution.  ``size`` is the symbol count of
    ``goals`` and ``answer`` together.
    """

    nid: int
    parent: Optional[int]
    goals: tuple[Term, ...]
    goal_sources: tuple[tuple[int, int], ...]  # (clause id, literal index)
    answer: tuple[Term, ...]
    depth: int
    bound: float = 0.0
    status: NodeStatus = NodeStatus.OPEN
    arc: Optional[OrArc] = None  # arc from parent
    children: list[int] = field(default_factory=list)
    size: int = 0

    @property
    def is_leaf_solution(self) -> bool:
        return self.status is NodeStatus.SOLUTION

    @property
    def is_failure(self) -> bool:
        return self.status is NodeStatus.FAILURE

    @property
    def selected_goal(self) -> Optional[Term]:
        return self.goals[0] if self.goals else None


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
        # copy traffic: total term symbols materialized into child
        # resolvents/answers — the §6 chain-sprouting copy load the
        # multiply-write memory is designed to absorb
        self.words_copied = 0
        sources = tuple((QUERY_CLAUSE_ID, i) for i in range(len(goals)))
        root = OrNode(
            nid=0,
            parent=None,
            goals=goals,
            goal_sources=sources,
            answer=goals,
            depth=0,
            size=2 * sum(g.size for g in goals),
        )
        if not goals:
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
        cur: Optional[int] = nid
        while cur is not None:
            n = self.nodes[cur]
            out.append(n)
            cur = n.parent
        out.reverse()
        return out

    def chain_arcs(self, nid: int) -> list[OrArc]:
        """Arcs along the chain from the root to ``nid``."""
        return [n.arc for n in self.chain(nid) if n.arc is not None]

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
        if self.selection_rule != "leftmost" and len(node.goals) > 1:
            self._apply_selection(node)
        goal = node.selected_goal
        assert goal is not None  # OPEN nodes always have goals
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

    def _apply_selection(self, node: OrNode) -> None:
        """Move the goal the computation rule picks to the front.

        Only *user-predicate* goals are candidates — builtins and
        control constructs execute exactly when they become leftmost,
        so their producers (which stay ahead of them, since unselected
        goals keep their relative order) are always resolved first.
        The selected goal moves; everything else keeps its order, which
        preserves soundness of builtin dataflow and completeness of the
        conjunction (modulo the depth bound).
        """
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
            # the leftmost goal is a builtin/control: it must run first
            return
        if self.selection_rule == "most-bound":
            def score(ix: int) -> tuple:
                g = node.goals[ix]
                if not isinstance(g, Struct):
                    return (0.0, ix)
                ground = sum(1 for a in g.args if a.ground)
                return (-ground / g.arity, ix)
        else:  # fewest-candidates
            def score(ix: int) -> tuple:
                return (len(self.program.candidates(node.goals[ix])), ix)
        best = min(candidates, key=score)
        if best == 0:
            return
        order = [best] + [i for i in range(len(node.goals)) if i != best]
        node.goals = tuple(node.goals[i] for i in order)
        node.goal_sources = tuple(node.goal_sources[i] for i in order)

    def _make_child(
        self,
        node: OrNode,
        body: tuple[Term, ...],
        body_sources: tuple[tuple[int, int], ...],
        key: ArcKey,
        b: Optional[Bindings] = None,
    ) -> int:
        """Add the child that replaces ``node``'s selected goal by
        ``body``.  ``b`` holds the step's bindings of variables in the
        rest of the resolvent and the answer; without it both are
        shared with the parent as they are."""
        # looked up on the module at call time, so it can be wrapped
        term_size = _terms.term_size
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
        child = OrNode(
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

    def _expand_user(self, node: OrNode, goal: Term) -> list[int]:
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
            # every slot is bound now; any other entry binds a goal variable
            touched = len(b.map) > len(template.slots)
            children.append(
                self._make_child(node, body, body_sources, key, b if touched else None)
            )
        return children

    def _expand_control(self, node: OrNode, goal: Term) -> list[int]:
        """Engine-level control: ``\\+``, ``call/1``, ``findall/3``.

        These need recursive solving; the sub-search runs on the
        sequential engine (its work is *not* charged to this tree's
        expansion counters — a deliberate simplification: the paper's
        model treats each decision arc as atomic).
        """
        from ..logic.solver import Solver

        assert isinstance(goal, Struct)
        key = ArcKey("builtin", (goal.indicator,))
        if goal.functor == "call":
            # transparent: replace the goal with its argument in place
            child_node = OrNode(
                nid=len(self.nodes),
                parent=node.nid,
                goals=(goal.args[0],) + node.goals[1:],
                goal_sources=node.goal_sources,
                answer=node.answer,
                depth=node.depth + 1,
                bound=node.bound + self.weight_fn(key),
                size=node.size - 1,  # the call/1 wrapper
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

    def _expand_builtin(self, node: OrNode, goal: Term) -> list[int]:
        children: list[int] = []
        b = Bindings()
        key = ArcKey("builtin", (goal.indicator,))
        try:
            solutions = []
            mark = b.mark()
            for _ in call_builtin(goal, b):
                # the raw map: _make_child resolves through it
                solutions.append(dict(b.map))
            b.undo_to(mark)
            for sol in solutions:
                cb = Bindings()
                cb.map = sol
                children.append(self._make_child(node, (), (), key, cb if sol else None))
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
