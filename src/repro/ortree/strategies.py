"""Search strategies over the OR-tree (paper section 3).

The paper contrasts three regimes:

* **depth-first** — Prolog's strategy; cheap on one processor, poor for
  parallelism;
* **breadth-first** — keeps many processors busy "but tends to work near
  the root of the tree, doing extra work before a solution is found";
* **best-first / branch-and-bound** — expand the open node with the
  least bound; with a learned bound (section 4/5) this is B-LOG.

Each strategy is one frontier discipline handed to the shared loop
(:func:`~repro.ortree.frontier.search`), the same loop the B-LOG engine
runs, so node counts are directly comparable (experiment E1).
``prune_bound`` implements the branch-and-bound cutoff of section 3:
"Once a solution is found, its bound can be used to cut off any
searches on other chains if their bound is greater than the one found."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .frontier import (
    BestFirst, BreadthFirst, DepthFirst, SearchCounters, is_solution, search, tree_expander,
)
from .tree import OrNode, OrTree

__all__ = [
    "SearchResult",
    "depth_first",
    "breadth_first",
    "best_first",
    "iterative_deepening",
    "STRATEGIES",
    "run_strategy",
]


@dataclass
class SearchResult(SearchCounters):
    """Outcome and work accounting of one search run."""

    strategy: str
    solutions: list[OrNode] = field(default_factory=list)
    solution_bounds: list[float] = field(default_factory=list)

    @property
    def found(self) -> bool:
        return bool(self.solutions)


def depth_first(
    tree: OrTree,
    max_solutions: Optional[int] = None,
    prune_bound: bool = False,
    max_expansions: int = 1_000_000,
) -> SearchResult:
    """Prolog-order depth-first search."""
    return run_strategy("depth-first", tree, max_solutions, prune_bound, max_expansions)


def breadth_first(
    tree: OrTree,
    max_solutions: Optional[int] = None,
    prune_bound: bool = False,
    max_expansions: int = 1_000_000,
) -> SearchResult:
    """Level-order search."""
    return run_strategy("breadth-first", tree, max_solutions, prune_bound, max_expansions)


def best_first(
    tree: OrTree,
    max_solutions: Optional[int] = None,
    prune_bound: bool = False,
    max_expansions: int = 1_000_000,
) -> SearchResult:
    """Least-bound-first search (the B-LOG discipline)."""
    return run_strategy("best-first", tree, max_solutions, prune_bound, max_expansions)


def iterative_deepening(
    tree_factory,
    max_solutions: Optional[int] = None,
    start_depth: int = 2,
    max_depth: int = 64,
    step: int = 2,
) -> SearchResult:
    """Iterative-deepening DFS over fresh trees per depth limit.

    ``tree_factory(depth_limit)`` must build a fresh :class:`OrTree`
    with that ``max_depth``.  Total expansions accumulate across
    iterations (the usual ID overhead shows up in E1).
    """
    total = SearchResult(strategy="iterative-deepening")
    for depth in range(start_depth, max_depth + 1, step):
        res = depth_first(tree_factory(depth), max_solutions)
        if res.solutions and total.expansions_to_first is None:
            total.expansions_to_first = total.expansions + res.expansions_to_first
        total.expansions += res.expansions
        total.generated += res.generated
        total.complete = res.complete
        # the whole tree fit in the depth limit, or enough solutions
        if res.complete or (res.solutions and max_solutions is not None
                            and len(res.solutions) >= max_solutions):
            total.solutions = res.solutions
            total.solution_bounds = res.solution_bounds
            break
    return total


#: strategy name -> its frontier discipline
STRATEGIES = {
    "depth-first": DepthFirst,
    "breadth-first": BreadthFirst,
    "best-first": BestFirst,
}


def run_strategy(
    name: str,
    tree: OrTree,
    max_solutions: Optional[int] = None,
    prune_bound: bool = False,
    max_expansions: int = 1_000_000,
) -> SearchResult:
    """Search ``tree`` with the named strategy's frontier discipline."""
    try:
        frontier = STRATEGIES[name]()
    except KeyError:
        raise ValueError(
            f"unknown strategy {name!r}; have {sorted(STRATEGIES)}"
        ) from None
    result = SearchResult(strategy=name)
    for node in search(
        frontier, tree.root, is_solution, tree_expander(tree), result,
        max_solutions, max_expansions, prune=prune_bound,
    ):
        result.solutions.append(node)
        result.solution_bounds.append(node.bound)
    return result
