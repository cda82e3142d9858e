"""Unit tests for the OS-process OR-parallel backend and the lane worker."""

import dataclasses
import pickle
import types
import typing

import pytest

from repro.core import BLogConfig, BLogEngine, or_parallel_solve, or_split, procpool
from repro.core.procpool import (
    CloseSession,
    LaneError,
    LaneWorker,
    LoadProgram,
    Op,
    Query,
    QueryReply,
    Shutdown,
)
from repro.logic import Program, Solver
from repro.logic.parser import parse_query
from repro.logic.terms import Term
from repro.machine.blog_machine import MachineConfig
from repro.ortree.tree import ArcKey
from repro.weights.store import StoreDelta, WeightEntry, WeightStore
from repro.workloads import synthetic_tree


class TestOrSplit:
    def test_figure1_splits_into_two_rules(self, figure1):
        branches = or_split(figure1, "gf(sam, G)")
        assert len(branches) == 2
        for goals, answer in branches:
            assert goals and len(answer) == 1  # the gf(sam, G) instance


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
    """Every lane message, handled by :class:`LaneWorker` in-process (the
    same object a thread lane runs and a process lane's child loop wraps)."""

    @pytest.fixture
    def load(self, figure1):
        return LoadProgram("fam", figure1, BLogConfig(), MachineConfig(n_processors=2))

    @pytest.fixture
    def worker(self, load):
        w = LaneWorker(lane=3)
        assert isinstance(self.query(w, "first", "f(sam, Y)", load=load), QueryReply)
        return w

    @staticmethod
    def query(worker, session="s", goals="gf(sam, G)", engine="blog", **kw):
        return worker.handle(Query("fam", session, engine, parse_query(goals), **kw))

    @staticmethod
    def learned(figure1) -> WeightStore:
        source = WeightStore()
        BLogEngine(figure1, global_store=source).query("gf(sam, G)")
        return source

    def test_load_program_installs_an_empty_mirror(self, load):
        worker = LaneWorker(lane=3)
        reply = self.query(worker, goals="f(sam, Y)", load=load)
        assert reply.answers == [{"Y": "larry"}]
        assert worker.programs["fam"] is load
        # the query learned into its session, not into the mirror
        assert len(worker.mirrors["fam"]) == 0
        assert worker.sessions["fam", "s"].store.delta().entries

    def test_a_query_without_its_program_is_an_error_reply(self):
        reply = LaneWorker(lane=3).handle(Query("fam", "s", "blog", parse_query("f(sam, Y)")))
        assert reply == LaneError("KeyError: 'fam'")

    def test_sync_store_applies_a_delta_to_the_mirror(self, worker, figure1):
        source = self.learned(figure1)
        full = StoreDelta(None, source.generation, source.snapshot())
        assert isinstance(self.query(worker, sync=full), QueryReply)
        mirror = worker.mirrors["fam"]
        assert mirror.generation == source.generation
        assert mirror.snapshot() == source.snapshot()

    def test_a_load_replaces_the_mirror_then_syncs_it(self, worker, load, figure1):
        source = self.learned(figure1)
        old = worker.mirrors["fam"]
        synced = StoreDelta(None, source.generation, source.snapshot())
        assert isinstance(self.query(worker, load=load, sync=synced), QueryReply)
        assert worker.mirrors["fam"] is not old and len(old) == 0
        assert worker.mirrors["fam"].snapshot() == source.snapshot()

    def test_a_sync_leaves_open_sessions_as_they_opened(self, worker, figure1):
        """A session open on the mirror while a sync lands keeps reading
        the mirror as it was at open, plus its own writes; a session
        opened by the syncing query reads the synced entries; and each
        close ships back only what that session wrote."""
        source = self.learned(figure1)
        self.query(worker, "early", "true")  # opens a session, learns nothing
        synced = StoreDelta(None, source.generation, source.snapshot())
        self.query(worker, "late", "true", sync=synced)
        early = worker.sessions["fam", "early"].store
        late = worker.sessions["fam", "late"].store
        assert early.snapshot() == {}
        assert late.snapshot() == source.snapshot() != {}
        for key, entry in source.snapshot().items():
            assert early.is_unknown(key) and late.entry(key) == entry
        assert worker.handle(CloseSession("fam", "early")).entries == {}
        assert worker.handle(CloseSession("fam", "late")).entries == {}
        worker.handle(CloseSession("fam", "first"))
        # a closed session no longer holds before-images for later syncs
        assert not worker.mirrors["fam"]._sessions

    def test_open_query_close_roundtrip(self, worker):
        reply = self.query(worker)
        assert isinstance(reply, QueryReply)
        assert sorted(a["G"] for a in reply.answers) == ["den", "doug"]
        assert reply.expansions == reply.engine_attrs["expansions"] > 0
        assert reply.complete
        delta = worker.handle(CloseSession("fam", "s"))
        # the delta carries what the session learned; the mirror is untouched
        assert isinstance(delta, StoreDelta) and delta.entries
        assert len(worker.mirrors["fam"]) == 0
        assert ("fam", "s") not in worker.sessions

    def test_a_query_opens_its_session_on_first_use(self, worker):
        """The first query of a session opens it on the mirror (and says
        so in its engine attributes); the next reuses it; and the
        session's ``CloseSession`` returns what both queries learned."""
        first = self.query(worker, "new")
        engine = worker.sessions["fam", "new"]
        assert first.engine_attrs["opened_session"] is True
        assert engine.store.base is worker.mirrors["fam"]
        again = self.query(worker, "new", "f(sam, Y)")
        assert "opened_session" not in again.engine_attrs
        assert worker.sessions["fam", "new"] is engine
        learned = engine.store.delta().entries
        delta = worker.handle(CloseSession("fam", "new"))
        assert delta.entries == learned and learned
        assert self.query(worker, "new").engine_attrs["opened_session"] is True

    def test_max_solutions_and_machine_engine(self, worker):
        one = self.query(worker, max_solutions=1)
        assert len(one.answers) == 1
        machine = self.query(worker, engine="machine")
        assert "makespan" in machine.engine_attrs

    def test_machine_engine_honours_the_selection_rule(self, figure1):
        """Both engines search the tree the session's engine builds, so
        the machine expands what the sequential engine does under the
        same computation rule."""
        expanded = {}
        for rule in ("leftmost", "fewest-candidates"):
            config = BLogConfig(selection_rule=rule)
            load = LoadProgram("fam", figure1, config, MachineConfig(n_processors=1))
            worker = LaneWorker(lane=0)
            for engine in ("blog", "machine"):
                reply = worker.handle(
                    Query("fam", engine, engine, parse_query("gf(X, Y)"), load=load)
                )
                expanded[rule, engine] = reply.expansions
        assert expanded["fewest-candidates", "blog"] != expanded["leftmost", "blog"]
        assert expanded["fewest-candidates", "machine"] == expanded["fewest-candidates", "blog"]
        assert expanded["leftmost", "machine"] == expanded["leftmost", "blog"]

    def test_close_of_an_unopened_session_has_no_delta(self, worker):
        assert worker.handle(CloseSession("fam", "x")) is None

    def test_engine_failure_is_an_error_reply(self, worker):
        reply = self.query(worker, engine="nope")
        assert reply == LaneError("ValueError: unknown engine 'nope'")

    def test_unknown_op_is_an_error_reply(self, worker):
        """Anything that is not a lane message gets a LaneError."""
        assert worker.handle({"op": "ping"}) == LaneError(
            "TypeError: not a lane message: dict"
        )
        assert isinstance(worker.handle(None), LaneError)

    def test_shutdown_is_acknowledged(self, worker):
        assert worker.handle(Shutdown()) is None


# -- the protocol contract: every message survives a process-lane pipe ------


def _seeded_messages(figure1):
    """One seeded value of every request and reply type, the reply taken
    from a real query on a real worker; the queries carry a program
    load and a store sync."""
    config = BLogConfig(n=8.0, a=12, max_depth=64)
    machine_config = MachineConfig(n_processors=3)
    load = LoadProgram("fam", figure1, config, machine_config)
    goals = parse_query("gf(sam, G), f(X, Y)")
    source = WeightStore()
    BLogEngine(figure1, global_store=source).query("gf(sam, G)")
    sync = StoreDelta(None, source.generation, source.snapshot())
    worker = LaneWorker(lane=0)
    reply = worker.handle(Query("fam", "s", "blog", parse_query("gf(sam, G)"), load=load))
    assert isinstance(reply, QueryReply) and reply.answers
    return [
        Query("fam", "s", "machine", goals, 2, load, sync),
        Query("fam", "s", "blog", goals, sync=sync),
        Query("fam", "s", "blog", goals),
        CloseSession("fam", "s"),
        Shutdown(),
        reply,
        LaneError("KeyError: 'fam'"),
    ]


#: every request type the module exports (a new one fails the seed check
#: until it is seeded) and both reply types
MESSAGE_TYPES = {
    obj for name in procpool.__all__
    if isinstance(obj := getattr(procpool, name), type) and issubclass(obj, Op) and obj is not Op
} | {QueryReply, LaneError}
LEAF_TYPES = (
    str, int, float, bool, type(None), Term, Program, BLogConfig, MachineConfig,
    ArcKey, WeightEntry,
)


def _plain_data(hint) -> bool:
    """A primitive, a term, a program, a config, an arc key, a weight
    entry, a program load or store delta of those, or an Optional/Union,
    tuple, list or dict of those."""
    if hint in (LoadProgram, StoreDelta):
        return all(map(_plain_data, typing.get_type_hints(hint).values()))
    args = typing.get_args(hint)
    if typing.get_origin(hint) in (typing.Union, types.UnionType, tuple, list, dict):
        return all(a is Ellipsis or _plain_data(a) for a in args)
    return isinstance(hint, type) and issubclass(hint, LEAF_TYPES)


class TestProtocolContract:
    def test_seeds_cover_every_message_type(self, figure1):
        seeds = _seeded_messages(figure1)
        assert {type(m) for m in seeds} == MESSAGE_TYPES
        queries = [m for m in seeds if isinstance(m, Query)]
        assert any(q.load is not None for q in queries)
        assert any(q.sync is not None and q.sync.entries for q in queries)

    def test_every_message_pickles_to_an_equal_value(self, figure1):
        for msg in _seeded_messages(figure1):
            back = pickle.loads(pickle.dumps(msg))
            assert type(back) is type(msg)
            if isinstance(msg, Query) and msg.load is not None:
                # a Program compares by identity: compare its clauses
                assert list(back.load.program) == list(msg.load.program)
                back = dataclasses.replace(
                    back, load=dataclasses.replace(back.load, program=msg.load.program)
                )
            assert back == msg, msg

    def test_messages_are_frozen_and_slotted(self, figure1):
        seeds = _seeded_messages(figure1)
        loads = [m.load for m in seeds if isinstance(m, Query) and m.load is not None]
        for msg in seeds + loads:
            assert not hasattr(msg, "__dict__"), type(msg).__name__
            if dataclasses.fields(msg):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(msg, dataclasses.fields(msg)[0].name, None)

    def test_fields_are_plain_data(self):
        for cls in MESSAGE_TYPES:
            for name, hint in typing.get_type_hints(cls).items():
                assert _plain_data(hint), f"{cls.__name__}.{name}: {hint}"
