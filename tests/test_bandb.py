"""Unit tests for the generic branch-and-bound framework."""

import pytest

from repro.bandb import (
    BnBProblem,
    BoundViolation,
    BranchAndBound,
    OrTreeProblem,
    parallel_best_first,
    speedup_curve,
)
from repro.ortree import OrTree
from repro.workloads import synthetic_tree


class SubsetSum(BnBProblem):
    """Pick items whose weights sum exactly to a target.

    State: (index, remaining).  Arc cost = item weight when taken (so
    the bound is the total taken so far — monotone); a solution is any
    state with remaining == 0.
    """

    def __init__(self, items, target):
        self.items = list(items)
        self.target = target

    def root(self):
        return (0, self.target)

    def branch(self, state):
        ix, remaining = state
        if ix >= len(self.items) or remaining <= 0:
            return
        w = self.items[ix]
        if w <= remaining:
            yield (ix + 1, remaining - w), float(w)  # take
        yield (ix + 1, remaining), 0.0  # skip

    def is_solution(self, state):
        return state[1] == 0


class NegativeCost(BnBProblem):
    def root(self):
        return 0

    def branch(self, state):
        if state < 3:
            yield state + 1, -1.0

    def is_solution(self, state):
        return state == 3


class TestSequential:
    def test_finds_subset(self):
        prob = SubsetSum([5, 3, 2, 7], 10)
        res = BranchAndBound(prob).run(max_solutions=1)
        assert res.best is not None
        assert res.best.bound == 10.0

    def test_no_solution(self):
        prob = SubsetSum([4, 4], 3)
        res = BranchAndBound(prob).run(max_solutions=1)
        assert res.solutions == []

    def test_all_solutions_share_target_bound(self):
        prob = SubsetSum([1, 2, 3, 4], 5)
        res = BranchAndBound(prob).run(max_solutions=None)
        assert len(res.solutions) >= 2  # {1,4}, {2,3}
        assert all(s.bound == 5.0 for s in res.solutions)

    def test_best_first_optimality(self):
        """With a monotone bound, the first solution popped is minimal."""
        prob = SubsetSum([1, 1, 1, 9], 3)
        res = BranchAndBound(prob).run(max_solutions=1)
        assert res.best.bound == 3.0

    def test_pruning_counts(self):
        prob = SubsetSum([0, 5], 0)  # root is already a solution at bound 0
        res = BranchAndBound(prob).run(max_solutions=None, prune=True)
        assert res.incumbent == 0.0

    def test_monotonicity_enforced(self):
        with pytest.raises(BoundViolation):
            BranchAndBound(NegativeCost()).run()

    def test_monotonicity_check_optional(self):
        res = BranchAndBound(NegativeCost(), check_monotone=False).run(
            max_solutions=1, prune=False
        )
        assert len(res.solutions) == 1

    def test_chain_reconstruction(self):
        prob = SubsetSum([2, 3], 5)
        res = BranchAndBound(prob).run(max_solutions=1)
        chain = res.best.chain()
        assert chain[0].depth == 0
        assert chain[-1].state == (2, 0)

    def test_max_expansions_cap(self):
        prob = SubsetSum(list(range(1, 20)), 1000)  # unsatisfiable, big tree
        res = BranchAndBound(prob).run(max_solutions=1, max_expansions=50)
        assert res.expansions <= 50

    def test_expansion_limit_is_incomplete(self):
        prob = SubsetSum(list(range(1, 20)), 1000)  # unsatisfiable, big tree
        res = BranchAndBound(prob).run(max_solutions=None, max_expansions=5)
        assert res.expansions == 5
        assert res.complete is False

    def test_full_search_is_complete(self):
        res = BranchAndBound(SubsetSum([1, 2, 3, 4], 5)).run(max_solutions=None)
        assert res.complete is True


class TestOrTreeAdapter:
    def test_adapter_finds_solutions(self, figure1):
        tree = OrTree(figure1, "gf(sam, G)")
        prob = OrTreeProblem(tree)
        res = BranchAndBound(prob).run(max_solutions=None, prune=False)
        assert len(res.solutions) == 2

    def test_adapter_bounds_match_tree(self, figure1):
        tree = OrTree(figure1, "gf(sam, G)", weight_fn=lambda k: 1.0)
        prob = OrTreeProblem(tree)
        res = BranchAndBound(prob).run(max_solutions=1)
        node = tree.node(res.best.state)
        assert node.bound == res.best.bound


class TestParallelFormulation:
    def test_single_processor_matches_sequential_work(self, figure1):
        tree = OrTree(figure1, "gf(sam, G)")
        res = parallel_best_first(OrTreeProblem(tree), 1, max_solutions=None)
        assert len(res.solutions) == 2
        assert res.iterations >= res.expansions  # 1 expansion per iteration

    def test_more_processors_fewer_iterations(self):
        wl = synthetic_tree(branching=3, depth=4, seed=1)

        def factory():
            return OrTreeProblem(OrTree(wl.program, wl.query, max_depth=16))

        r1 = parallel_best_first(factory(), 1, max_solutions=None)
        r8 = parallel_best_first(factory(), 8, max_solutions=None)
        assert r8.iterations < r1.iterations
        assert len(r8.solutions) == len(r1.solutions)

    def test_utilization_declines_with_processors(self):
        wl = synthetic_tree(branching=2, depth=4, seed=2)

        def factory():
            return OrTreeProblem(OrTree(wl.program, wl.query, max_depth=16))

        r2 = parallel_best_first(factory(), 2, max_solutions=None)
        r32 = parallel_best_first(factory(), 32, max_solutions=None)
        assert r32.utilization <= r2.utilization

    def test_invalid_processor_count(self, figure1):
        tree = OrTree(figure1, "gf(sam, G)")
        with pytest.raises(ValueError):
            parallel_best_first(OrTreeProblem(tree), 0)

    def test_speedup_curve_shape(self):
        wl = synthetic_tree(branching=3, depth=4, seed=3)
        rows = speedup_curve(
            lambda: OrTreeProblem(OrTree(wl.program, wl.query, max_depth=16)),
            [1, 2, 4, 8],
            max_solutions=None,
        )
        speedups = [r["speedup"] for r in rows]
        assert speedups[0] == 1.0
        assert all(b >= a * 0.99 for a, b in zip(speedups, speedups[1:]))
        assert speedups[-1] > 1.5

    def test_solutions_found_in_same_iteration_all_recorded(self):
        wl = synthetic_tree(branching=4, depth=2, seed=4)
        res = parallel_best_first(
            OrTreeProblem(OrTree(wl.program, wl.query, max_depth=8)),
            16,
            max_solutions=None,
        )
        assert len(res.solutions) == wl.n_solutions
