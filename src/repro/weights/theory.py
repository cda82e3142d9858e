"""The theoretical weight model of section 4.

The paper defines arc weights from (unnormalized) probabilities:

1. the same arc occurring twice in a tree has one probability;
2. every successful chain has probability 1/S (S = number of
   solutions);
3. every failed chain has probability 0.

Weights are ``-log2(p)``; chain bounds are weight sums; so requirement
2 becomes one **linear equation per solution chain** — the sum of its
arc weights equals ``log2(S)`` (or any common constant N, the session
target) — and requirement 3 means every failed chain must contain an
arc whose weight can be driven to infinity, i.e. an arc that appears
in **no** successful chain.  "If N is the number of both complete
solutions and unsuccessful solutions, and M arcs are used in them, we
have N equations in M unknowns to solve."

This module builds exactly that system from a fully developed OR-tree
and solves it by non-negative least squares, reporting:

* the weight assignment (finite arcs) and the infinite arcs;
* whether the system is **feasible** (residual ~ 0 and every failure
  chain is killable);
* the **pathological chains** of §4 ("if an unsuccessful query has only
  arc A, then the weight of A must be infinity, but if A is an arc in a
  successful solution, it may not have a weight of infinity").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..ortree.tree import ArcKey, NodeStatus, OrTree
from .store import StoreDelta, WeightEntry, WeightState, WeightStore

__all__ = ["TheoryResult", "solve_weights", "verify_assignment", "store_from_theory"]

_FEASIBLE_TOL = 1e-6


@dataclass
class TheoryResult:
    """Solution of the §4 linear system for one search tree."""

    target: float  # the common bound N (log2(S) by default)
    n_solutions: int
    n_failures: int
    finite_weights: dict[ArcKey, float] = field(default_factory=dict)
    infinite_arcs: set[ArcKey] = field(default_factory=set)
    residual: float = 0.0
    pathological_chains: list[int] = field(default_factory=list)  # failure leaf ids

    @property
    def feasible(self) -> bool:
        """Weights exist: equations satisfied and every failure killable."""
        return self.residual < _FEASIBLE_TOL and not self.pathological_chains

    def weight(self, key: ArcKey) -> float:
        if key in self.infinite_arcs:
            return float("inf")
        if key.kind == "builtin":
            return 0.0
        return self.finite_weights.get(key, 0.0)

    def probability(self, key: ArcKey) -> float:
        """The unnormalized arc probability 2^{-w}."""
        w = self.weight(key)
        return 0.0 if w == float("inf") else 2.0 ** (-w)


def _chain_keys(tree: OrTree, leaf_id: int) -> list[ArcKey]:
    """Distinct non-builtin arc keys on the root→leaf chain."""
    return WeightStore.chain_keys(tree.chain_arcs(leaf_id))


def solve_weights(tree: OrTree, target: Optional[float] = None) -> TheoryResult:
    """Solve the §4 weight system for a fully developed ``tree``.

    ``target`` defaults to ``log2(S)`` so chain probabilities come out
    at exactly 1/S; pass the session constant N to match §5 instead.
    The tree must already be fully expanded (``expand_all``).
    """
    if any(n.status is NodeStatus.OPEN for n in tree.nodes):
        raise ValueError("tree must be fully expanded before solving weights")
    solutions = tree.solutions()
    failures = tree.failures()
    s = len(solutions)
    if target is None:
        target = float(np.log2(s)) if s > 1 else (1.0 if s == 1 else 0.0)
    result = TheoryResult(
        target=target, n_solutions=s, n_failures=len(failures)
    )

    sol_chains = [_chain_keys(tree, n.nid) for n in solutions]
    fail_chains = [(n.nid, _chain_keys(tree, n.nid)) for n in failures]
    success_arcs: set[ArcKey] = set()
    for chain in sol_chains:
        success_arcs.update(chain)

    # Failure chains: an arc not used by any solution can carry infinity.
    for leaf_id, chain in fail_chains:
        killable = [k for k in chain if k not in success_arcs]
        if killable:
            # blame nearest the leaf, as the heuristic of §5 does
            result.infinite_arcs.add(killable[-1])
        else:
            result.pathological_chains.append(leaf_id)

    # Solution equations: sum of chain weights = target, weights >= 0.
    arcs = sorted(success_arcs, key=str)
    if arcs and sol_chains:
        index = {k: i for i, k in enumerate(arcs)}
        a = np.zeros((len(sol_chains), len(arcs)))
        for row, chain in enumerate(sol_chains):
            for k in chain:
                a[row, index[k]] = 1.0
        b = np.full(len(sol_chains), target)
        try:
            from scipy.optimize import nnls

            w, rnorm = nnls(a, b)
            result.residual = float(rnorm)
        except ImportError:  # pragma: no cover - scipy is installed here
            w, res, _, _ = np.linalg.lstsq(a, b, rcond=None)
            w = np.clip(w, 0.0, None)
            result.residual = float(np.linalg.norm(a @ w - b))
        result.finite_weights = {k: float(w[index[k]]) for k in arcs}
    return result


def verify_assignment(tree: OrTree, result: TheoryResult, tol: float = 1e-6) -> bool:
    """Check a weight assignment satisfies §4 on this tree.

    Every solution chain must sum to the target; every failure chain
    must contain an infinite arc (unless recorded pathological).
    """
    for node in tree.solutions():
        total = sum(result.weight(k) for k in _chain_keys(tree, node.nid))
        if abs(total - result.target) > tol:
            return False
    for node in tree.failures():
        if node.nid in result.pathological_chains:
            continue
        keys = _chain_keys(tree, node.nid)
        if not any(result.weight(k) == float("inf") for k in keys):
            return False
    return True


def store_from_theory(
    result: TheoryResult, n: Optional[float] = None, a: int = 16
) -> WeightStore:
    """Materialize a :class:`WeightStore` from a theory solution.

    Finite weights become KNOWN entries (clamped at 0) and infinite arcs
    use the store's A·N encoding, applied as one delta; builtin keys are
    skipped.  ``n`` defaults to the theory target (rounded up to at
    least 1 so the store's encodings stay ordered).
    """
    if n is None:
        n = max(result.target, 1.0)
    store = WeightStore(n=n, a=a)
    infinite = WeightEntry(WeightState.INFINITE, store.infinity_value)
    entries = {
        key: WeightEntry(WeightState.KNOWN, max(0.0, w))
        for key, w in result.finite_weights.items()
        if key.kind != "builtin"
    }
    entries.update((key, infinite) for key in result.infinite_arcs if key.kind != "builtin")
    store.apply_delta(StoreDelta(0, len(entries), entries))
    return store
