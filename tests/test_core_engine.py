"""Unit tests for the B-LOG engine (core contribution)."""

import pytest

from repro.core import BLogConfig, BLogEngine
from repro.logic import Program, Solver
from repro.ortree import OrTree
from repro.weights import WeightStore, solve_weights, store_from_theory
from repro.workloads import comb_tree, scaled_family, synthetic_tree


class TestBasicQueries:
    def test_figure1_answers(self, figure1):
        eng = BLogEngine(figure1)
        res = eng.query("gf(sam, G)")
        assert sorted(str(a["G"]) for a in res.answers) == ["den", "doug"]

    def test_max_solutions(self, figure1):
        eng = BLogEngine(figure1)
        res = eng.query("gf(sam, G)", max_solutions=1)
        assert len(res.answers) == 1

    def test_failed_query(self, figure1):
        eng = BLogEngine(figure1)
        res = eng.query("gf(john, G)")
        assert not res.solved
        assert res.failures > 0

    def test_solve_values_helper(self, figure1):
        eng = BLogEngine(figure1)
        vals = eng.solve_values("gf(sam, G)", "G")
        assert sorted(str(v) for v in vals) == ["den", "doug"]

    def test_keep_tree(self, figure1):
        eng = BLogEngine(figure1)
        res = eng.query("gf(sam, G)", keep_tree=True)
        assert res.tree is not None
        assert len(res.tree.solutions()) == 2

    def test_queries_counted(self, figure1):
        eng = BLogEngine(figure1)
        eng.query("gf(sam, G)")
        eng.query("gf(curt, G)")
        assert eng.queries_run == 2


class TestCompleteness:
    """§8: best-first must not lose solutions vs the Prolog baseline."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_solution_set_as_prolog(self, seed):
        wl = synthetic_tree(branching=3, depth=3, dead_fraction=0.34, seed=seed)
        baseline = {
            str(s["W"]) for s in Solver(wl.program, max_depth=32).solve_all(wl.query)
        }
        eng = BLogEngine(wl.program, BLogConfig(max_depth=32))
        got = {str(a["W"]) for a in eng.query(wl.query).answers}
        assert got == baseline

    def test_family_equivalence(self):
        fam = scaled_family(4, 2, 2, seed=3)
        q = f"anc({fam.roots[0]}, D)"
        baseline = {
            str(s["D"]) for s in Solver(fam.program, max_depth=64).solve_all(q)
        }
        eng = BLogEngine(fam.program, BLogConfig(max_depth=64))
        got = {str(a["D"]) for a in eng.query(q).answers}
        assert got == baseline

    def test_completeness_survives_learned_weights(self, figure1):
        """Even after several adaptive queries, answer sets are intact."""
        eng = BLogEngine(figure1)
        eng.begin_session()
        for _ in range(4):
            res = eng.query("gf(sam, G)")
            assert sorted(str(a["G"]) for a in res.answers) == ["den", "doug"]
        eng.end_session()


class TestAdaptiveLearning:
    def test_warm_query_reaches_first_solution_faster(self, figure1):
        eng = BLogEngine(figure1, BLogConfig(n=4, a=8))
        eng.begin_session()
        cold = eng.query("gf(sam, G)", max_solutions=1).expansions_to_first
        warm = eng.query("gf(sam, G)", max_solutions=1).expansions_to_first
        eng.end_session()
        assert warm < cold

    def test_failure_branch_learned(self, figure1):
        """After one full query, the failed chain's leafmost unknown
        pointer — rule 2's f(sam,larry) pointer (1, 0, 3) — is infinite
        (the §5 failure rule blames the unknown nearest the leaf)."""
        eng = BLogEngine(figure1, BLogConfig(n=4, a=8))
        eng.begin_session()
        eng.query("gf(sam, G)")
        store = eng.store
        from repro.ortree import ArcKey

        assert store.is_infinite(ArcKey("pointer", (1, 0, 3)))
        # the rule-2 pointer itself stays unknown (it is not leafmost)
        assert store.is_unknown(ArcKey("pointer", (-1, 0, 1)))

    def test_depth_cutoff_is_not_learned_as_failure(self):
        """A chain the depth limit cut short is no §5 failure: no arc
        goes INFINITE, and the cutoff is counted apart from failures."""
        nat = Program.from_source("nat(0).\nnat(s(X)) :- nat(X).\n")
        eng = BLogEngine(nat, BLogConfig(max_depth=2))
        res = eng.query("nat(s(s(s(0))))")
        assert not res.solved
        assert not any(eng.store.is_infinite(k) for k in eng.store.keys())
        assert all(log.kind != "failure" for log in res.update_logs)
        assert res.failures == 0
        assert res.depth_cutoffs == 1
        # a real failure under the same limit is still learned
        res = eng.query("nat(s(a))")
        assert res.failures == 1 and res.depth_cutoffs == 0
        assert any(eng.store.is_infinite(k) for k in eng.store.keys())

    def test_update_logs_recorded(self, figure1):
        eng = BLogEngine(figure1)
        res = eng.query("gf(sam, G)")
        kinds = [log.kind for log in res.update_logs]
        assert "success" in kinds
        assert "failure" in kinds

    def test_updates_can_be_disabled(self, figure1):
        eng = BLogEngine(figure1)
        res = eng.query("gf(sam, G)", update_weights=False)
        assert res.update_logs == []
        assert len(eng.store) == 0

    def test_deferred_updates_mode(self, figure1):
        cfg = BLogConfig(live_updates=False)
        eng = BLogEngine(figure1, cfg)
        res = eng.query("gf(sam, G)")
        assert res.update_logs  # applied after the search
        assert len(eng.store) > 0

    def test_comb_workload_learning(self):
        """On the comb, a warm second query avoids the dead teeth."""
        wl = comb_tree(teeth=6, tooth_depth=5)
        eng = BLogEngine(wl.program, BLogConfig(n=8, a=16, max_depth=32))
        eng.begin_session()
        cold = eng.query(wl.query, max_solutions=1).expansions_to_first
        warm = eng.query(wl.query, max_solutions=1).expansions_to_first
        assert warm <= cold
        assert warm <= wl.depth + 2  # essentially straight to the prize


class TestSessions:
    def test_run_session_merges(self, figure1):
        eng = BLogEngine(figure1)
        results = eng.run_session(["gf(sam, G)", "gf(curt, G)"])
        assert len(results) == 2
        assert not eng.sessions.in_session
        assert len(eng.sessions.global_store) > 0

    def test_session_abort_on_error(self, figure1):
        eng = BLogEngine(figure1)
        with pytest.raises(ValueError, match="unbound"):
            eng.run_session(["gf(sam, G)", "X"])  # unbound goal raises
        assert not eng.sessions.in_session

    def test_conservative_vs_strong_infinity_handling(self, figure1):
        from repro.ortree import ArcKey

        # With both failure-chain pointers pre-set KNOWN in the global
        # store, a session failure finds no unknown to blame (noop) —
        # so under the conservative merge both survive.  Under the
        # strong merge, leave one unknown: the session drives it to ∞
        # and the strong merge propagates that into the global store.
        f_key = ArcKey("pointer", (1, 0, 3))
        rule_key = ArcKey("pointer", (-1, 0, 1))

        eng = BLogEngine(figure1)
        eng.sessions.global_store.set_known(f_key, 2.0)
        eng.run_session(["gf(sam, G)"])
        # f_key was known, so the failure blamed rule_key in the local
        # store; conservative merge adopts it into the (unknown) global
        assert eng.sessions.global_store.is_known(f_key)
        assert eng.sessions.global_store.is_infinite(rule_key)

        eng2 = BLogEngine(figure1)
        eng2.sessions.global_store.set_known(f_key, 2.0)
        eng2.sessions.global_store.set_known(rule_key, 2.0)
        eng2.begin_session()
        eng2.query("gf(sam, G)")
        # both failure-chain pointers known: the §5 rule records a noop
        eng2.end_session(conservative=False)
        assert eng2.sessions.global_store.is_known(f_key)
        assert eng2.sessions.global_store.is_known(rule_key)


class TestTheorySeededEngine:
    def test_engine_with_exact_weights_goes_straight_to_solutions(self, figure1):
        """Seeding the engine with the §4 exact weights makes the first
        query expand only solution-bearing chains."""
        tree = OrTree(figure1, "gf(sam, G)", arc_key_policy="pointer")
        tree.expand_all()
        theory = solve_weights(tree, target=8.0)
        store = store_from_theory(theory, n=8.0)
        eng = BLogEngine(
            figure1,
            BLogConfig(n=8.0, arc_key_policy="pointer"),
            global_store=store,
        )
        # best-first pops both bound-N solutions before any chain into the
        # failing branch (priced above N), so stopping at two solutions
        # never touches a failure
        res = eng.query("gf(sam, G)", max_solutions=2, update_weights=False)
        assert sorted(str(a["G"]) for a in res.answers) == ["den", "doug"]
        assert res.failures == 0


class TestConfigValidation:
    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            BLogConfig(n=-1)
        with pytest.raises(ValueError):
            BLogConfig(a=1)
        with pytest.raises(ValueError):
            BLogConfig(alpha=0)
        with pytest.raises(ValueError):
            BLogConfig(d=-1)
        with pytest.raises(ValueError):
            BLogConfig(arc_key_policy="nope")

    def test_expansion_budget(self, figure1):
        eng = BLogEngine(figure1, BLogConfig(max_expansions=2))
        res = eng.query("gf(sam, G)")
        assert res.expansions <= 2

    def test_truncated_search_is_not_complete(self, figure1):
        """An expansion limit or a depth cutoff may hide answers, so the
        result says it is incomplete; stopping at max_solutions does not."""
        assert BLogEngine(figure1).query("gf(sam, G)").complete
        assert BLogEngine(figure1).query("gf(sam, G)", max_solutions=1).complete
        res = BLogEngine(figure1, BLogConfig(max_expansions=2)).query("gf(sam, G)")
        assert not res.complete and len(res.answers) < 2
        nat = Program.from_source("nat(0).\nnat(s(X)) :- nat(X).\n")
        res = BLogEngine(nat, BLogConfig(max_depth=2)).query("nat(s(s(s(0))))")
        assert res.depth_cutoffs == 1 and not res.complete


class TestQueryIter:
    def test_lazy_answers(self, figure1):
        eng = BLogEngine(figure1)
        answers = []
        for a in eng.query_iter("gf(sam, G)"):
            answers.append(str(a["G"]))
        assert sorted(answers) == ["den", "doug"]
        assert eng.last_result.expansions > 0

    def test_early_stop_keeps_partial_learning(self, figure1):
        eng = BLogEngine(figure1, BLogConfig(n=8, a=16))
        eng.begin_session()
        it = eng.query_iter("gf(sam, G)")
        first = next(it)
        it.close()  # consumer walks away
        assert str(first["G"]) in ("den", "doug")
        # the successful chain's weights were applied before the yield
        assert len(eng.store) > 0
        # partial stats available
        assert eng.last_result.expansions_to_first is not None
        assert eng.queries_run == 1

    def test_iter_then_query_consistent(self, figure1):
        eng = BLogEngine(figure1)
        via_iter = sorted(str(a["G"]) for a in eng.query_iter("gf(sam, G)"))
        via_query = sorted(
            str(a["G"]) for a in eng.query("gf(sam, G)").answers
        )
        assert via_iter == via_query

    def test_max_solutions_in_iter(self, figure1):
        eng = BLogEngine(figure1)
        answers = list(eng.query_iter("gf(sam, G)", max_solutions=1))
        assert len(answers) == 1

    def test_failed_query_yields_nothing(self, figure1):
        eng = BLogEngine(figure1)
        assert list(eng.query_iter("gf(john, G)")) == []
        assert eng.last_result.failures > 0
