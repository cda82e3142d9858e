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
    OpenSession,
    Query,
    QueryReply,
    Shutdown,
    SyncStore,
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
    def worker(self, figure1):
        w = LaneWorker(lane=3)
        load = LoadProgram("fam", figure1, BLogConfig(), MachineConfig(n_processors=2))
        assert w.handle(load) is None
        return w

    @staticmethod
    def query(worker, session="s", goals="gf(sam, G)", engine="blog", **kw):
        return worker.handle(Query("fam", session, engine, parse_query(goals), **kw))

    def test_load_program_installs_an_empty_mirror(self, worker):
        assert "fam" in worker.programs
        assert len(worker.mirrors["fam"]) == 0

    def test_sync_store_applies_a_delta_to_the_mirror(self, worker, figure1):
        source = WeightStore()
        engine = BLogEngine(figure1, global_store=source)
        engine.query("gf(sam, G)")
        full = StoreDelta(None, source.generation, source.snapshot())
        assert worker.handle(SyncStore("fam", full)) == len(source)
        mirror = worker.mirrors["fam"]
        assert mirror.generation == source.generation
        assert mirror.snapshot() == source.snapshot()

    def test_a_sync_leaves_open_sessions_as_they_opened(self, worker, figure1):
        """A session open on the mirror while a sync lands keeps reading
        the mirror as it was at open, plus its own writes; a session
        opened after the sync reads the synced entries; and each close
        ships back only what that session wrote."""
        source = WeightStore()
        BLogEngine(figure1, global_store=source).query("gf(sam, G)")
        worker.handle(OpenSession("fam", "early"))
        synced = StoreDelta(None, source.generation, source.snapshot())
        assert worker.handle(SyncStore("fam", synced)) == len(source) > 0
        worker.handle(OpenSession("fam", "late"))
        early = worker.sessions["fam", "early"].store
        late = worker.sessions["fam", "late"].store
        assert early.snapshot() == {}
        assert late.snapshot() == source.snapshot()
        for key, entry in source.snapshot().items():
            assert early.is_unknown(key) and late.entry(key) == entry
        assert worker.handle(CloseSession("fam", "early")).entries == {}
        assert worker.handle(CloseSession("fam", "late")).entries == {}
        # a closed session no longer holds before-images for later syncs
        assert not worker.mirrors["fam"]._sessions

    def test_open_query_close_roundtrip(self, worker):
        assert worker.handle(OpenSession("fam", "s")) is None
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

    def test_max_solutions_and_machine_engine(self, worker):
        worker.handle(OpenSession("fam", "s"))
        one = self.query(worker, max_solutions=1)
        assert len(one.answers) == 1
        machine = self.query(worker, engine="machine")
        assert "makespan" in machine.engine_attrs

    def test_close_of_an_unopened_session_has_no_delta(self, worker):
        assert worker.handle(CloseSession("fam", "x")) is None

    def test_query_on_an_unopened_session_is_an_error_reply(self, worker):
        reply = self.query(worker, session="never-opened")
        assert isinstance(reply, LaneError)
        assert "not open on lane 3" in reply.error

    def test_engine_failure_is_an_error_reply(self, worker):
        worker.handle(OpenSession("fam", "s"))
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
    from a real query on a real worker."""
    config = BLogConfig(n=8.0, a=12, max_depth=64)
    machine_config = MachineConfig(n_processors=3)
    goals = parse_query("gf(sam, G), f(X, Y)")
    source = WeightStore()
    BLogEngine(figure1, global_store=source).query("gf(sam, G)")
    worker = LaneWorker(lane=0)
    worker.handle(LoadProgram("fam", figure1, config, machine_config))
    worker.handle(OpenSession("fam", "s"))
    reply = worker.handle(Query("fam", "s", "blog", parse_query("gf(sam, G)")))
    assert isinstance(reply, QueryReply) and reply.answers
    return [
        LoadProgram("fam", figure1, config, machine_config),
        SyncStore("fam", StoreDelta(None, source.generation, source.snapshot())),
        OpenSession("fam", "s"),
        Query("fam", "s", "machine", goals, 2),
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
    entry, a store delta of those, or an Optional/Union, tuple, list or
    dict of those."""
    if hint is StoreDelta:
        return all(map(_plain_data, typing.get_type_hints(StoreDelta).values()))
    args = typing.get_args(hint)
    if typing.get_origin(hint) in (typing.Union, types.UnionType, tuple, list, dict):
        return all(a is Ellipsis or _plain_data(a) for a in args)
    return isinstance(hint, type) and issubclass(hint, LEAF_TYPES)


class TestProtocolContract:
    def test_seeds_cover_every_message_type(self, figure1):
        assert {type(m) for m in _seeded_messages(figure1)} == MESSAGE_TYPES

    def test_every_message_pickles_to_an_equal_value(self, figure1):
        for msg in _seeded_messages(figure1):
            back = pickle.loads(pickle.dumps(msg))
            assert type(back) is type(msg)
            if isinstance(msg, LoadProgram):
                # a Program compares by identity: compare its clauses
                assert list(back.program) == list(msg.program)
                back = dataclasses.replace(back, program=msg.program)
            assert back == msg, msg

    def test_messages_are_frozen_and_slotted(self, figure1):
        for msg in _seeded_messages(figure1):
            assert not hasattr(msg, "__dict__"), type(msg).__name__
            if dataclasses.fields(msg):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(msg, dataclasses.fields(msg)[0].name, None)

    def test_fields_are_plain_data(self):
        for cls in MESSAGE_TYPES:
            for name, hint in typing.get_type_hints(cls).items():
                assert _plain_data(hint), f"{cls.__name__}.{name}: {hint}"
