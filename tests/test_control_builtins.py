"""Tests for the engine-level control constructs: \\+, call/1, findall/3."""

import pytest

from repro.core import BLogConfig, BLogEngine
from repro.logic import Program, Solver, parse_term
from repro.ortree import OrTree, depth_first


@pytest.fixture
def bachelor_program():
    return Program.from_source(
        """
        man(sam). man(larry). man(curt).
        married(curt).
        bachelor(X) :- man(X), \\+ married(X).
        """
    )


class TestNegationSolver:
    def test_negation_filters(self, bachelor_program):
        solver = Solver(bachelor_program)
        got = [str(s["X"]) for s in solver.solve_all("bachelor(X)")]
        assert got == ["sam", "larry"]

    def test_negation_ground_success(self, bachelor_program):
        assert Solver(bachelor_program).succeeds("\\+ married(sam)")

    def test_negation_ground_failure(self, bachelor_program):
        assert not Solver(bachelor_program).succeeds("\\+ married(curt)")

    def test_negation_exports_no_bindings(self, bachelor_program):
        solver = Solver(bachelor_program)
        # \+ man(X) fails (man(X) solvable), leaving X unbound afterwards
        assert not solver.succeeds("\\+ man(X)")

    def test_double_negation(self, bachelor_program):
        assert Solver(bachelor_program).succeeds("\\+ \\+ man(sam)")
        assert not Solver(bachelor_program).succeeds("\\+ \\+ married(sam)")

    def test_negation_of_undefined_predicate(self, bachelor_program):
        assert Solver(bachelor_program).succeeds("\\+ unicorn(sam)")

    def test_parse_precedence(self):
        goal = parse_term("\\+ married(X)")
        assert goal.indicator == ("\\+", 1)


class TestCall:
    def test_call_transparent(self, bachelor_program):
        solver = Solver(bachelor_program)
        got = [str(s["X"]) for s in solver.solve_all("call(man(X))")]
        assert got == ["sam", "larry", "curt"]

    def test_call_in_rule(self):
        p = Program.from_source(
            """
            apply(G) :- call(G).
            fact(yes).
            """
        )
        assert Solver(p).succeeds("apply(fact(yes))")


class TestFindall:
    def test_collects_all(self, bachelor_program):
        solver = Solver(bachelor_program)
        sols = solver.solve_all("findall(X, man(X), L)")
        assert len(sols) == 1
        assert str(sols[0]["L"]) == "[sam, larry, curt]"

    def test_empty_on_no_solutions(self, bachelor_program):
        solver = Solver(bachelor_program)
        sols = solver.solve_all("findall(X, unicorn(X), L)")
        assert str(sols[0]["L"]) == "[]"

    def test_template_instantiation(self, bachelor_program):
        solver = Solver(bachelor_program)
        sols = solver.solve_all("findall(p(X), married(X), L)")
        assert str(sols[0]["L"]) == "[p(curt)]"

    def test_findall_then_continue(self, bachelor_program):
        solver = Solver(bachelor_program)
        sols = solver.solve_all("findall(X, man(X), L), man(Y)")
        assert len(sols) == 3  # Y still enumerates

    def test_findall_check_mode(self, bachelor_program):
        solver = Solver(bachelor_program)
        assert solver.succeeds("findall(X, married(X), [curt])")
        assert not solver.succeeds("findall(X, married(X), [sam])")


class TestControlInOrTree:
    def test_negation_in_tree(self, bachelor_program):
        tree = OrTree(bachelor_program, "bachelor(X)")
        res = depth_first(tree)
        got = sorted(str(tree.solution_answer(s)["X"]) for s in res.solutions)
        assert got == ["larry", "sam"]

    def test_findall_in_tree(self, bachelor_program):
        tree = OrTree(bachelor_program, "findall(X, man(X), L)")
        tree.expand_all()
        sols = tree.solutions()
        assert len(sols) == 1
        assert str(tree.solution_answer(sols[0])["L"]) == "[sam, larry, curt]"

    def test_call_in_tree(self, bachelor_program):
        tree = OrTree(bachelor_program, "call(man(X))")
        tree.expand_all()
        assert len(tree.solutions()) == 3

    def test_call_step_is_an_ordinary_step(self):
        """A call/1 step is charged its child's size and weighed by the
        pair weight like every other step; its argument keeps the
        goal's source."""
        program = Program.from_source("p(X) :- call(q(X)).\nq(a).\n")
        tree = OrTree(program, "p(X)", pair_weight_fn=lambda prev, key: 5.0)
        tree.expand_all()
        assert [n.bound for n in tree.nodes] == [0.0, 5.0, 10.0, 15.0]
        # p(X)'s child call(q(X)) is 5 words, q(X) 4, the solution 2
        assert tree.words_copied == 5 + 4 + 2
        assert tree.nodes[2].goal_sources == tree.nodes[1].goal_sources == ((0, 0),)
        assert [str(tree.solution_answer(n)["X"]) for n in tree.solutions()] == ["a"]

    def test_engine_with_negation(self, bachelor_program):
        eng = BLogEngine(bachelor_program, BLogConfig(max_depth=32))
        res = eng.query("bachelor(X)")
        assert sorted(str(a["X"]) for a in res.answers) == ["larry", "sam"]

    def test_negation_failure_leaf(self, bachelor_program):
        tree = OrTree(bachelor_program, "\\+ man(sam)")
        tree.expand(0)
        assert tree.root.status.value == "failure"


class TestClosedWorldWorkload:
    def test_set_difference_via_negation(self):
        p = Program.from_source(
            """
            item(a). item(b). item(c). item(d).
            sold(b). sold(d).
            in_stock(X) :- item(X), \\+ sold(X).
            """
        )
        solver = Solver(p)
        got = [str(s["X"]) for s in solver.solve_all("in_stock(X)")]
        assert got == ["a", "c"]

    def test_engine_matches_solver_with_negation(self):
        p = Program.from_source(
            """
            node(a). node(b). node(c).
            edge(a, b).
            isolated(X) :- node(X), \\+ edge(X, _), \\+ edge(_, X).
            """
        )
        expected = {str(s["X"]) for s in Solver(p).solve_all("isolated(X)")}
        eng = BLogEngine(p, BLogConfig(max_depth=32))
        got = {str(a["X"]) for a in eng.query("isolated(X)").answers}
        assert got == expected == {"c"}
