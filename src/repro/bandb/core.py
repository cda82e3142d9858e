"""Generic branch-and-bound framework (paper section 3).

The paper frames OR-tree search as "a branching graph that represents
the enumeration of all solutions in a branch-and-bound algorithm" with
a bound that is *monotonic* along every root-to-leaf chain.  This
module provides the abstract machinery independent of logic programs —
a :class:`BnBProblem` protocol and the sequential best-first engine
with incumbent pruning, which runs the shared frontier loop
(:func:`~repro.ortree.frontier.search`) and its work accounting — so
that the same engine can be exercised on classic B&B problems (tests
use a subset-sum/knapsack instance) and on OR-trees via an adapter.

Invariants enforced (and property-tested):

* expanding a node never yields a child with a smaller bound
  (monotonicity; violation raises :class:`BoundViolation`);
* with an admissible monotone bound, best-first pops solutions in
  non-decreasing bound order, so the first solution found is optimal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generic, Iterable, Optional, TypeVar

from ..ortree.frontier import BestFirst, SearchCounters, is_solution, search

__all__ = [
    "BnBProblem",
    "BnBNode",
    "BnBResult",
    "BoundViolation",
    "BranchAndBound",
    "OrTreeProblem",
]

S = TypeVar("S")  # problem state


class BoundViolation(RuntimeError):
    """A child bound was lower than its parent's (non-monotone bound)."""


class BnBProblem(Generic[S]):
    """Protocol for branch-and-bound problems.

    ``root`` gives the initial state; ``branch`` yields ``(child,
    arc_cost)`` pairs; ``is_solution`` marks complete states.  Bounds
    accumulate additively: ``bound(child) = bound(parent) + arc_cost``,
    exactly the chain-weight sum of section 4.
    """

    def root(self) -> S:
        raise NotImplementedError

    def branch(self, state: S) -> Iterable[tuple[S, float]]:
        raise NotImplementedError

    def is_solution(self, state: S) -> bool:
        raise NotImplementedError


@dataclass
class BnBNode(Generic[S]):
    """A live search node: state + accumulated bound + lineage."""

    state: S
    bound: float
    depth: int
    parent: Optional["BnBNode[S]"] = None

    def chain(self) -> list["BnBNode[S]"]:
        out: list[BnBNode[S]] = []
        cur: Optional[BnBNode[S]] = self
        while cur is not None:
            out.append(cur)
            cur = cur.parent
        out.reverse()
        return out


@dataclass
class BnBResult(SearchCounters, Generic[S]):
    """Search outcome: solutions in discovery order plus work counters."""

    solutions: list[BnBNode[S]] = field(default_factory=list)
    incumbent: Optional[float] = None

    @property
    def best(self) -> Optional[BnBNode[S]]:
        if not self.solutions:
            return None
        return min(self.solutions, key=lambda n: n.bound)


class BranchAndBound(Generic[S]):
    """Sequential best-first branch and bound with incumbent pruning.

    Parameters
    ----------
    problem:
        The :class:`BnBProblem` to search.
    check_monotone:
        Raise :class:`BoundViolation` if a child bound decreases —
        catches broken weight functions early (the paper's requirement
        that the bound "is monotonic on each arc in any chain").
    """

    def __init__(self, problem: BnBProblem[S], check_monotone: bool = True):
        self.problem = problem
        self.check_monotone = check_monotone

    def run(
        self,
        max_solutions: Optional[int] = 1,
        max_expansions: int = 1_000_000,
        prune: bool = True,
    ) -> BnBResult[S]:
        """Best-first search; prune nodes whose bound exceeds the incumbent.

        With ``max_solutions=None`` the full bounded tree is enumerated
        (pruning still applies when ``prune``: chains strictly worse than
        the best solution are cut, mirroring the all-solutions semantics
        of section 4 where every solution shares the same bound N).
        """
        result: BnBResult[S] = BnBResult()
        problem = self.problem

        def branch(node: BnBNode[S]) -> list[BnBNode[S]]:
            children = []
            for state, cost in problem.branch(node.state):
                if self.check_monotone and cost < 0:
                    raise BoundViolation(
                        f"negative arc cost {cost} from state {node.state!r}"
                    )
                children.append(BnBNode(state, node.bound + cost, node.depth + 1, node))
            return children

        def within_incumbent(node: BnBNode[S]) -> bool:
            # the cutoff comes before the solution test here: a popped
            # solution worse than the incumbent is pruned, not recorded
            return result.incumbent is None or node.bound <= result.incumbent

        root = BnBNode(problem.root(), 0.0, 0)
        for node in search(
            BestFirst(), root, lambda node: problem.is_solution(node.state), branch, result,
            max_solutions, max_expansions, prune, within_incumbent if prune else None,
        ):
            result.solutions.append(node)
            if result.incumbent is None or node.bound < result.incumbent:
                result.incumbent = node.bound
        return result


class OrTreeProblem(BnBProblem[int]):
    """Adapter: an :class:`~repro.ortree.tree.OrTree` as a BnB problem.

    States are node ids; arc costs are the tree's arc weights (from the
    weight store plugged into the tree).  This lets the generic engine,
    the parallel formulations, and the machine simulator all consume
    the same search space.
    """

    def __init__(self, tree):
        self.tree = tree

    def root(self) -> int:
        return self.tree.root.nid

    def branch(self, state: int) -> Iterable[tuple[int, float]]:
        for cid in self.tree.expand(state):
            child = self.tree.node(cid)
            assert child.arc is not None
            yield cid, child.arc.weight

    def is_solution(self, state: int) -> bool:
        return is_solution(self.tree.node(state))
