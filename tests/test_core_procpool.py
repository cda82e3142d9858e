"""Unit tests for the OS-process OR-parallel backend and the lane worker."""

import pytest

from repro.core import BLogConfig, BLogEngine, or_parallel_solve, or_split
from repro.core.procpool import LaneWorker
from repro.logic import Program, Solver
from repro.logic.parser import parse_query
from repro.machine.blog_machine import MachineConfig
from repro.weights.persist import store_delta
from repro.weights.store import WeightStore
from repro.workloads import synthetic_tree


class TestOrSplit:
    def test_figure1_splits_into_two_rules(self, figure1):
        branches = or_split(figure1, "gf(sam, G)")
        assert len(branches) == 2


class TestOrParallelSolve:
    def test_answers_match_sequential(self, figure1):
        seq = {str(s["G"]) for s in Solver(figure1).solve_all("gf(sam, G)")}
        par = or_parallel_solve(figure1, "gf(sam, G)", processes=2)
        assert {a["G"] for a in par.answers} == seq
        assert par.branches == 2

    def test_single_process_fallback(self, figure1):
        par = or_parallel_solve(figure1, "gf(sam, G)", processes=1)
        assert sorted(a["G"] for a in par.answers) == ["den", "doug"]

    def test_failed_query(self, figure1):
        par = or_parallel_solve(figure1, "gf(john, G)", processes=2)
        assert par.answers == []

    def test_immediate_solutions_handled(self, figure1):
        """Fact-resolved branches are solutions before any worker runs."""
        par = or_parallel_solve(figure1, "f(sam, Y)", processes=2)
        assert [a["Y"] for a in par.answers] == ["larry"]

    def test_synthetic_tree_counts(self):
        wl = synthetic_tree(branching=3, depth=3, dead_fraction=0.34, seed=21)
        par = or_parallel_solve(wl.program, wl.query, processes=3)
        assert len(par.answers) == wl.n_solutions

    def test_per_branch_accounting(self, figure1):
        par = or_parallel_solve(figure1, "gf(sam, G)", processes=2)
        assert sum(par.per_branch_solutions) == len(par.answers)

    def test_depth_cutoffs_summed_over_branches(self, figure1):
        assert or_parallel_solve(figure1, "gf(sam, G)", processes=1).depth_cutoffs == 0
        left = Program.from_source("p(X) :- p(X).\np(a).\n")
        par = or_parallel_solve(left, "p(X)", processes=1, max_depth=16)
        assert par.depth_cutoffs > 0

    def test_max_solutions_per_branch(self):
        wl = synthetic_tree(branching=2, depth=3, seed=22)
        par = or_parallel_solve(
            wl.program, wl.query, processes=2, max_solutions_per_branch=1
        )
        assert all(n <= 1 for n in par.per_branch_solutions)


class TestEdgeCases:
    def test_zero_or_alternatives_returns_empty(self, figure1):
        """A root with no matching clauses has nothing to distribute:
        the call answers immediately with an empty result (no pool)."""
        par = or_parallel_solve(figure1, "no_such_pred(X)", processes=4)
        assert par.answers == []
        assert par.branches == 0
        assert par.per_branch_solutions == []

    def test_zero_or_alternatives_single_process(self, figure1):
        par = or_parallel_solve(figure1, "no_such_pred(X)", processes=1)
        assert par.answers == []
        assert par.branches == 0

    def test_unpicklable_term_raises_clear_error(self, figure1):
        from repro.logic.terms import Atom, Struct, fresh_var

        class LocalAtom(Atom):  # local classes cannot be pickled
            pass

        goal = Struct("gf", (LocalAtom("sam"), fresh_var("G")))
        with pytest.raises(ValueError, match="not picklable"):
            or_parallel_solve(figure1, (goal,), processes=2)


# -- the lane worker: the one implementation of the lane protocol ------------


class TestLaneWorker:
    """Every op of :class:`LaneWorker`, driven in-process (the same
    object a thread lane runs and a process lane's child loop wraps)."""

    @pytest.fixture
    def worker(self, figure1):
        w = LaneWorker(lane=3)
        reply = w.handle(
            {
                "op": "load_program",
                "name": "fam",
                "program": figure1,
                "config": BLogConfig(),
                "machine_config": MachineConfig(n_processors=2),
            }
        )
        assert reply == {"ok": True}
        return w

    @staticmethod
    def query(worker, session="s", goals="gf(sam, G)", engine="blog", **kw):
        return worker.handle(
            {"op": "query", "name": "fam", "session": session, "engine": engine,
             "goals": parse_query(goals), **kw}
        )

    def test_load_program_installs_an_empty_mirror(self, worker):
        assert "fam" in worker.programs
        assert len(worker.mirrors["fam"]) == 0

    def test_sync_store_applies_a_delta_to_the_mirror(self, worker, figure1):
        source = WeightStore()
        engine = BLogEngine(figure1, global_store=source)
        engine.query("gf(sam, G)")
        reply = worker.handle(
            {"op": "sync_store", "name": "fam", "delta": store_delta(source)}
        )
        assert reply == {"ok": True, "applied": len(source)}
        mirror = worker.mirrors["fam"]
        assert mirror.generation == source.generation
        assert mirror.snapshot() == source.snapshot()

    def test_open_query_close_roundtrip(self, worker):
        assert worker.handle({"op": "open_session", "name": "fam", "session": "s"}) == {
            "ok": True
        }
        reply = self.query(worker)
        assert reply["ok"]
        assert sorted(a["G"] for a in reply["answers"]) == ["den", "doug"]
        assert reply["expansions"] == reply["engine_attrs"]["expansions"] > 0
        closed = worker.handle({"op": "close_session", "name": "fam", "session": "s"})
        assert closed["ok"]
        # the delta carries what the session learned; the mirror is untouched
        assert closed["delta"]["entries"]
        assert len(worker.mirrors["fam"]) == 0
        assert ("fam", "s") not in worker.sessions

    def test_max_solutions_and_machine_engine(self, worker):
        worker.handle({"op": "open_session", "name": "fam", "session": "s"})
        one = self.query(worker, max_solutions=1)
        assert one["ok"] and len(one["answers"]) == 1
        machine = self.query(worker, engine="machine")
        assert machine["ok"] and "makespan" in machine["engine_attrs"]

    def test_close_of_an_unopened_session_has_no_delta(self, worker):
        reply = worker.handle({"op": "close_session", "name": "fam", "session": "x"})
        assert reply == {"ok": True, "delta": None}

    def test_query_on_an_unopened_session_is_an_error_reply(self, worker):
        reply = self.query(worker, session="never-opened")
        assert reply["ok"] is False
        assert "not open on lane 3" in reply["error"]

    def test_engine_failure_is_an_error_reply(self, worker):
        worker.handle({"op": "open_session", "name": "fam", "session": "s"})
        reply = self.query(worker, engine="nope")
        assert reply == {"ok": False, "error": "ValueError: unknown engine 'nope'"}

    def test_unknown_op_is_an_error_reply(self, worker):
        assert worker.handle({"op": "ping"}) == {
            "ok": False, "error": "unknown lane op 'ping'"
        }
        assert worker.handle({})["ok"] is False

    def test_shutdown_is_acknowledged(self, worker):
        assert worker.handle({"op": "shutdown"}) == {"ok": True}
