"""Tests for store metrics and the Hanoi workload."""

import pytest

from repro.core import BLogConfig, BLogEngine
from repro.ortree import ArcKey, OrTree
from repro.weights import WeightStore, solve_weights, store_from_theory
from repro.weights.metrics import chain_bound, store_distance, store_summary
from repro.workloads import family_program
from repro.workloads.hanoi import hanoi_moves, hanoi_query, hanoi_program, solve_hanoi

from .store_writes import put_infinite, put_known


def key(i):
    return ArcKey("pointer", (0, 0, i))


class TestSummary:
    def test_empty_store(self):
        s = store_summary(WeightStore())
        assert s.entries == 0

    def test_counts(self):
        store = WeightStore(n=8, a=4)
        put_known(store, key(1), 2.0)
        put_known(store, key(2), 6.0)
        put_infinite(store, key(3))
        s = store_summary(store)
        assert s.known == 2
        assert s.infinite == 1
        assert s.known_weight_sum == 8.0
        assert s.known_weight_max == 6.0
        assert s.entries == 3


class TestDistance:
    def test_identical_stores_zero(self):
        a = WeightStore(n=8, a=4)
        put_known(a, key(1), 2.0)
        assert store_distance(a, a.copy()) == 0.0

    def test_empty_stores_zero(self):
        assert store_distance(WeightStore(), WeightStore()) == 0.0

    def test_known_difference(self):
        a, b = WeightStore(n=8, a=4), WeightStore(n=8, a=4)
        put_known(a, key(1), 2.0)
        put_known(b, key(1), 6.0)
        assert store_distance(a, b) == pytest.approx(4.0)

    def test_symmetry(self):
        a, b = WeightStore(n=8, a=4), WeightStore(n=8, a=4)
        put_known(a, key(1), 1.0)
        put_infinite(b, key(2))
        assert store_distance(a, b) == store_distance(b, a)

    def test_session_learning_approaches_theory(self):
        """The E3 claim as a unit test: distance to the theoretical
        store shrinks from cold to learned."""
        program = family_program()
        tree = OrTree(program, "gf(sam, G)", arc_key_policy="pointer")
        tree.expand_all()
        theory = store_from_theory(solve_weights(tree, target=8.0), n=8.0, a=16)
        cold = WeightStore(n=8, a=16)
        eng = BLogEngine(program, BLogConfig(n=8, a=16))
        eng.begin_session()
        for _ in range(3):
            eng.query("gf(sam, G)")
        learned = eng.store
        assert store_distance(learned, theory) < store_distance(cold, theory)


class TestChainBound:
    def test_sums_non_builtin(self):
        store = WeightStore(n=8, a=4)
        put_known(store, key(1), 3.0)
        keys = [key(1), ArcKey("builtin", (("is", 2),)), key(2)]
        # key(2) unknown -> N+1 = 9
        assert chain_bound(store, keys) == pytest.approx(12.0)


class TestHanoi:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5])
    def test_move_count(self, n):
        assert len(solve_hanoi(n)) == hanoi_moves(n)

    def test_three_disc_sequence(self):
        moves = solve_hanoi(2)
        assert moves == [
            ("left", "middle"),
            ("left", "right"),
            ("middle", "right"),
        ]

    def test_single_solution(self):
        from repro.logic import Solver

        solver = Solver(hanoi_program(), max_depth=128)
        assert len(solver.solve_all(hanoi_query(3))) == 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            solve_hanoi(-1)

    def test_moves_are_legal(self):
        """Replay the moves on actual peg stacks."""
        n = 4
        pegs = {"left": list(range(n, 0, -1)), "middle": [], "right": []}
        for src, dst in solve_hanoi(n):
            disc = pegs[src].pop()
            assert not pegs[dst] or pegs[dst][-1] > disc
            pegs[dst].append(disc)
        assert pegs["right"] == list(range(n, 0, -1))
