"""Unit tests for the search strategies of section 3."""

import pytest

from repro.logic import Program
from repro.ortree import (
    OrTree,
    best_first,
    breadth_first,
    depth_first,
    iterative_deepening,
    run_strategy,
)
from repro.workloads import comb_tree, synthetic_tree


def fresh_tree(program, query="gf(sam, G)", weight_fn=None, max_depth=64):
    return OrTree(program, query, weight_fn=weight_fn, max_depth=max_depth)


class TestDepthFirst:
    def test_prolog_solution_order(self, figure1):
        tree = fresh_tree(figure1)
        res = depth_first(tree)
        answers = [str(tree.solution_answer(s)["G"]) for s in res.solutions]
        assert answers == ["den", "doug"]

    def test_first_solution_early(self, figure1):
        tree = fresh_tree(figure1)
        res = depth_first(tree, max_solutions=1)
        assert len(res.solutions) == 1
        assert res.expansions_to_first == res.expansions

    @pytest.mark.parametrize("bad", [0, -2])
    def test_max_solutions_below_one_is_refused(self, figure1, bad):
        with pytest.raises(ValueError, match="max_solutions"):
            depth_first(fresh_tree(figure1), max_solutions=bad)

    def test_dfs_skips_failure_branch_when_stopping_early(self, figure1):
        tree = fresh_tree(figure1)
        res = depth_first(tree, max_solutions=2)
        # both solutions live in the left subtree; the m-branch is never expanded
        assert res.expansions <= 4


class TestBreadthFirst:
    def test_finds_all_solutions(self, figure1):
        tree = fresh_tree(figure1)
        res = breadth_first(tree)
        assert len(res.solutions) == 2

    def test_bfs_expands_whole_upper_tree(self, figure1):
        """BFS 'tends to work near the root': for the first solution it
        expands at least as many nodes as DFS does (§3)."""
        t1 = fresh_tree(figure1)
        dfs = depth_first(t1, max_solutions=1)
        t2 = fresh_tree(figure1)
        bfs = breadth_first(t2, max_solutions=1)
        assert bfs.expansions >= dfs.expansions

    def test_bfs_finds_shallowest_solution_first(self):
        p = Program.from_source(
            """
            s(deep) :- a.
            s(shallow).
            a :- b.
            b.
            """
        )
        tree = OrTree(p, "s(W)")
        res = breadth_first(tree, max_solutions=1)
        assert str(tree.solution_answer(res.solutions[0])["W"]) == "shallow"


class TestBestFirst:
    def test_uniform_weights_complete(self, figure1):
        tree = fresh_tree(figure1)
        res = best_first(tree)
        assert len(res.solutions) == 2

    def test_weights_steer_search(self, figure1):
        """Penalizing the m-rule pointer makes best-first avoid it until
        the f-branch is exhausted."""

        def wf(key):
            if key.kind == "pointer" and key.key == (-1, 0, 1):
                return 100.0
            return 0.0

        tree = fresh_tree(figure1, weight_fn=wf)
        res = best_first(tree, max_solutions=2)
        # both solutions found without ever expanding the m-rule child
        expanded_m = any(
            n.arc is not None
            and n.arc.key.kind == "pointer"
            and n.arc.key.key == (-1, 0, 1)
            and n.status.value == "expanded"
            for n in tree.nodes
        )
        assert len(res.solutions) == 2
        assert not expanded_m

    def test_solutions_pop_in_bound_order(self, figure1):
        tree = fresh_tree(figure1, weight_fn=lambda k: 1.0)
        res = best_first(tree)
        assert res.solution_bounds == sorted(res.solution_bounds)

    def test_prune_bound_cuts_worse_chains(self):
        p = Program.from_source(
            """
            s(win).
            s(X) :- deep(X).
            deep(X) :- deeper(X).
            deeper(lose).
            """
        )

        def wf(key):
            # the deep branch is priced strictly above the direct solution
            if key.kind == "pointer" and key.key == (-1, 0, 1):
                return 5.0
            return 0.0

        tree = OrTree(p, "s(W)", weight_fn=wf, max_depth=16)
        res = best_first(tree, max_solutions=None, prune_bound=True)
        assert len(res.solutions) == 1
        assert str(tree.solution_answer(res.solutions[0])["W"]) == "win"
        assert res.pruned > 0


class TestIterativeDeepening:
    def test_finds_solution(self, figure1):
        res = iterative_deepening(
            lambda d: OrTree(figure1, "gf(sam, G)", max_depth=d),
            max_solutions=1,
        )
        assert len(res.solutions) >= 1

    def test_total_expansions_accumulate(self):
        wl = comb_tree(teeth=3, tooth_depth=6)
        res = iterative_deepening(
            lambda d: OrTree(wl.program, wl.query, max_depth=d),
            max_solutions=1,
            start_depth=2,
            step=2,
            max_depth=16,
        )
        assert len(res.solutions) == 1
        # ID re-expands shallow levels: more work than one direct DFS
        direct = depth_first(OrTree(wl.program, wl.query, max_depth=16), 1)
        assert res.expansions >= direct.expansions

    def test_exhausts_finite_tree_without_solutions(self):
        p = Program.from_source("p(X) :- q(X).")  # q undefined -> failure
        res = iterative_deepening(
            lambda d: OrTree(p, "p(W)", max_depth=d), max_solutions=1
        )
        assert res.solutions == []


class TestDispatch:
    def test_run_strategy_by_name(self, figure1):
        for name in ("depth-first", "breadth-first", "best-first"):
            tree = fresh_tree(figure1)
            res = run_strategy(name, tree)
            assert res.strategy == name
            assert len(res.solutions) == 2

    def test_unknown_name_rejected(self, figure1):
        with pytest.raises(ValueError):
            run_strategy("random-walk", fresh_tree(figure1))


class TestCrossStrategyAgreement:
    @pytest.mark.parametrize("name", ["depth-first", "breadth-first", "best-first"])
    def test_same_solution_sets(self, name):
        wl = synthetic_tree(branching=3, depth=3, dead_fraction=0.34, seed=5)
        tree = OrTree(wl.program, wl.query, max_depth=16)
        res = run_strategy(name, tree)
        answers = sorted(
            str(tree.solution_answer(s)["W"]) for s in res.solutions
        )
        assert len(answers) == wl.n_solutions

    def test_max_expansions_cap(self, figure1):
        tree = fresh_tree(figure1)
        res = depth_first(tree, max_expansions=2)
        assert res.expansions <= 2


class TestCompleteness:
    """A search stopped by its expansion limit or cut off at the depth
    limit says so; the engine always did, the library searches now do."""

    def test_expansion_limit_is_incomplete(self, figure1):
        res = depth_first(fresh_tree(figure1), max_expansions=2)
        assert res.complete is False

    def test_depth_cutoff_is_incomplete(self):
        p = Program.from_source("p(X) :- p(X).\np(a).")
        res = best_first(OrTree(p, "p(X)", max_depth=8))
        assert res.found
        assert res.complete is False
        assert res.depth_cutoffs > 0

    @pytest.mark.parametrize("name", ["depth-first", "breadth-first", "best-first"])
    def test_full_search_is_complete(self, figure1, name):
        res = run_strategy(name, fresh_tree(figure1))
        assert res.complete is True
        assert res.depth_cutoffs == 0
        assert res.failures == 1  # the m(larry, ...) branch

    def test_max_solutions_stop_is_complete(self, figure1):
        res = best_first(fresh_tree(figure1), max_solutions=1)
        assert res.complete is True
