"""Unit tests for the sequential depth-first engine (Prolog baseline)."""

import pytest

from repro.logic import BuiltinError, Program, Solver, prolog_solutions


class TestFigure1:
    """Section 2's worked execution."""

    def test_all_grandchildren_of_sam(self, figure1):
        values = prolog_solutions(figure1, "gf(sam, G)", var="G")
        assert [str(v) for v in values] == ["den", "doug"]

    def test_first_solution_is_den(self, figure1):
        """Prolog finds den first (figure 1's trace)."""
        values = prolog_solutions(figure1, "gf(sam, G)", var="G", max_solutions=1)
        assert str(values[0]) == "den"

    def test_grandchild_via_mother_rule(self, figure1):
        values = prolog_solutions(figure1, "gf(curt, G)", var="G")
        assert [str(v) for v in values] == ["john"]

    def test_failed_query(self, figure1):
        assert prolog_solutions(figure1, "gf(john, G)") == []

    def test_ground_query_succeeds(self, figure1):
        solver = Solver(figure1)
        assert solver.succeeds("gf(sam, den)")
        assert not solver.succeeds("gf(sam, john)")

    def test_conjunction_query(self, figure1):
        solver = Solver(figure1)
        sols = solver.solve_all("f(sam, Y), f(Y, Z)")
        assert [(str(s["Y"]), str(s["Z"])) for s in sols] == [
            ("larry", "den"),
            ("larry", "doug"),
        ]


class TestListPrograms:
    def test_append_forward(self, append_program):
        sols = prolog_solutions(append_program, "app([1,2], [3], R)", var="R")
        assert [str(s) for s in sols] == ["[1, 2, 3]"]

    def test_append_backward_enumerates_splits(self, append_program):
        solver = Solver(append_program)
        sols = solver.solve_all("app(A, B, [1,2,3])")
        assert len(sols) == 4
        assert str(sols[0]["A"]) == "[]"
        assert str(sols[3]["B"]) == "[]"

    def test_member_via_append(self, append_program):
        append_program.add_source("mem(X, L) :- app(_, [X|_], L).")
        sols = prolog_solutions(append_program, "mem(X, [a,b,c])", var="X")
        assert [str(s) for s in sols] == ["a", "b", "c"]


class TestArithmeticPrograms:
    @pytest.fixture
    def fact_program(self):
        return Program.from_source(
            """
            fact(0, 1).
            fact(N, F) :- N > 0, M is N - 1, fact(M, G), F is N * G.
            """
        )

    def test_factorial(self, fact_program):
        sols = prolog_solutions(fact_program, "fact(6, F)", var="F")
        assert [s.value for s in sols] == [720]

    def test_factorial_zero(self, fact_program):
        sols = prolog_solutions(fact_program, "fact(0, F)", var="F")
        assert [s.value for s in sols] == [1]

    def test_fib(self):
        p = Program.from_source(
            """
            fib(0, 0).
            fib(1, 1).
            fib(N, F) :- N > 1, A is N - 1, B is N - 2,
                         fib(A, FA), fib(B, FB), F is FA + FB.
            """
        )
        sols = prolog_solutions(p, "fib(10, F)", var="F")
        assert [s.value for s in sols] == [55]


class TestCut:
    def test_cut_commits_to_first_clause(self):
        p = Program.from_source(
            """
            max(X, Y, X) :- X >= Y, !.
            max(_, Y, Y).
            """
        )
        sols = prolog_solutions(p, "max(3, 2, M)", var="M")
        assert [s.value for s in sols] == [3]  # without cut there'd be [3, 2]

    def test_cut_prunes_clause_alternatives(self):
        p = Program.from_source(
            """
            p(1) :- !.
            p(2).
            """
        )
        sols = prolog_solutions(p, "p(X)", var="X")
        assert [s.value for s in sols] == [1]

    def test_cut_transparent_to_continuation(self):
        p = Program.from_source(
            """
            q(1). q(2).
            p(X) :- first(_), q(X).
            first(a) :- !.
            first(b).
            """
        )
        sols = prolog_solutions(p, "p(X)", var="X")
        assert [s.value for s in sols] == [1, 2]


class TestDepthBound:
    def test_left_recursion_terminates(self):
        p = Program.from_source(
            """
            loop(X) :- loop(X).
            loop(done).
            """
        )
        solver = Solver(p, max_depth=32)
        sols = solver.solve_all("loop(W)", max_solutions=1)
        assert [str(s["W"]) for s in sols] == ["done"]
        assert solver.stats.depth_cutoffs > 0

    def test_infinite_enumeration_lazily(self):
        p = Program.from_source(
            """
            nat(0).
            nat(s(N)) :- nat(N).
            """
        )
        solver = Solver(p, max_depth=100)
        sols = solver.solve_all("nat(X)", max_solutions=4)
        assert [str(s["X"]) for s in sols] == ["0", "s(0)", "s(s(0))", "s(s(s(0)))"]


class TestStats:
    def test_counters_populated(self, figure1):
        solver = Solver(figure1)
        solver.solve_all("gf(sam, G)")
        assert solver.stats.solutions == 2
        assert solver.stats.resolutions >= 5
        assert solver.stats.inferences >= solver.stats.resolutions

    def test_builtin_calls_counted(self):
        p = Program.from_source("double(X, Y) :- Y is X * 2.")
        solver = Solver(p)
        solver.solve_all("double(3, Y)")
        assert solver.stats.builtin_calls == 1


class TestErrors:
    def test_unbound_goal_raises(self, figure1):
        solver = Solver(figure1)
        with pytest.raises(BuiltinError):
            solver.solve_all("G")

    @pytest.mark.parametrize("bad", [0, -1])
    def test_max_solutions_below_one_is_refused(self, figure1, bad):
        """0 used to return one solution."""
        with pytest.raises(ValueError, match="max_solutions"):
            Solver(figure1).solve_all("gf(sam, G)", max_solutions=bad)

    def test_solution_str(self, figure1):
        solver = Solver(figure1)
        sol = solver.solve_all("gf(sam, G)", max_solutions=1)[0]
        assert str(sol) == "G = den"
        assert "G" in sol

    def test_ground_solution_str(self, figure1):
        solver = Solver(figure1)
        sol = solver.solve_all("gf(sam, den)")[0]
        assert str(sol) == "true"
