"""Explicit OR-tree model (paper §2, figure 3) and the search
strategies compared in §3: depth-first (Prolog), breadth-first, and
best-first branch and bound (B-LOG)."""

from .strategies import (
    STRATEGIES,
    SearchResult,
    best_first,
    breadth_first,
    depth_first,
    iterative_deepening,
    run_strategy,
)
from .andor import AndOrEvaluator, AndOrResult, AndOrStats
from .tree import ArcKey, NodeStatus, OrArc, OrNode, OrTree, canonical_goal

__all__ = [
    "ArcKey",
    "NodeStatus",
    "OrArc",
    "OrNode",
    "OrTree",
    "canonical_goal",
    "SearchResult",
    "depth_first",
    "breadth_first",
    "best_first",
    "iterative_deepening",
    "run_strategy",
    "STRATEGIES",
    "AndOrEvaluator",
    "AndOrResult",
    "AndOrStats",
]
