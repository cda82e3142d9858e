"""The one frontier loop of §3.

§3 compares depth-first, breadth-first and best-first/branch-and-bound
as three orders of one search.  :func:`search` is that search; the
frontier discipline is its only variable.  The B-LOG engine, the §3
strategies, :class:`~repro.bandb.BranchAndBound` and the §6 scoreboard
interpreter all run it, so their :class:`SearchCounters` mean the same
thing everywhere.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional

from .tree import NodeStatus, OrNode, OrTree

__all__ = ["SearchCounters", "BestFirst", "DepthFirst", "BreadthFirst", "search",
           "is_solution", "tree_expander"]


@dataclass(kw_only=True)
class SearchCounters:
    """Work accounting shared by every search result."""

    expansions: int = 0  # nodes whose fan-out was computed
    generated: int = 0  # children pushed
    pruned: int = 0  # popped nodes cut off by the incumbent bound
    failures: int = 0  # expanded nodes without children: §5 failures
    #: leaves cut off at ``max_depth``: neither failures nor learned from
    depth_cutoffs: int = 0
    expansions_to_first: Optional[int] = None
    #: False when ``max_expansions`` stopped the search or a depth cutoff
    #: occurred, so solutions may be missing; reaching ``max_solutions``
    #: leaves it True
    complete: bool = True


class BestFirst(list):
    """Least bound first, ties in generation order: the B-LOG discipline
    ("Each processor works on the chains with the lowest bounds")."""

    def __init__(self) -> None:
        super().__init__()
        self._seq = itertools.count()

    def push(self, nodes) -> None:
        for node in nodes:
            heapq.heappush(self, (node.bound, next(self._seq), node))

    def pop(self):  # type: ignore[override]
        return heapq.heappop(self)[2]


class DepthFirst(list):
    """LIFO, children pushed right-to-left: Prolog order."""

    def push(self, nodes) -> None:
        self.extend(reversed(nodes))


class BreadthFirst(deque):
    """FIFO."""

    push = deque.extend
    pop = deque.popleft  # type: ignore[assignment]


def search(
    frontier,
    root,
    solved: Callable[[Any], bool],
    expand: Callable[[Any], Optional[list]],
    counters: SearchCounters,
    max_solutions: Optional[int] = None,
    max_expansions: int = 1_000_000,
    prune: bool = False,
    accept: Optional[Callable[[Any], bool]] = None,
    on_failure: Optional[Callable[[Any], None]] = None,
) -> Iterator[Any]:
    """Search from ``root`` in ``frontier``'s order, yielding solutions
    and updating ``counters`` in place.

    ``solved(node)`` tells a solution.  ``expand(node)`` returns the
    children (each with a ``bound``), ``[]`` at a failure leaf, which
    ``on_failure`` sees, or None when the depth limit, not the program,
    ended the chain.  With ``prune`` a popped non-solution whose bound
    exceeds the best solution's is cut off (§3).  ``accept`` may refuse
    a popped solution; it counts as pruned.  ``max_solutions`` below 1
    is refused with ValueError.
    """
    if max_solutions is not None and max_solutions < 1:
        raise ValueError(f"max_solutions must be at least 1, not {max_solutions}")
    found = 0
    incumbent: Optional[float] = None
    frontier.push((root,))
    while frontier:
        # every stop from outside the search itself is checked here
        if counters.expansions >= max_expansions:
            counters.complete = False
            return
        node = frontier.pop()
        if solved(node):
            if accept is not None and not accept(node):
                counters.pruned += 1
                continue
            if counters.expansions_to_first is None:
                counters.expansions_to_first = counters.expansions
            if incumbent is None or node.bound < incumbent:
                incumbent = node.bound
            found += 1
            yield node
            if max_solutions is not None and found >= max_solutions:
                return
        elif prune and incumbent is not None and node.bound > incumbent:
            counters.pruned += 1
        else:
            children = expand(node)
            counters.expansions += 1
            if children is None:
                counters.depth_cutoffs += 1
                counters.complete = False
            elif children:
                counters.generated += len(children)
                frontier.push(children)
            else:
                counters.failures += 1
                if on_failure is not None:
                    on_failure(node)


def is_solution(node: OrNode) -> bool:
    return node.status is NodeStatus.SOLUTION


def tree_expander(tree: OrTree) -> Callable[[OrNode], Optional[list[OrNode]]]:
    """:func:`search`'s expand step over an OR-tree."""

    def expand(node: OrNode) -> Optional[list[OrNode]]:
        cutoffs = tree.depth_cutoffs
        children = tree.expand(node.nid)
        if tree.depth_cutoffs != cutoffs:
            return None
        return [tree.nodes[cid] for cid in children]

    return expand
