"""OS-process OR-parallel backend (wall-clock sanity check).

The simulated machine (:mod:`repro.machine`) is the faithful model of
the paper's architecture; this module is the pragmatic counterpart: it
splits the top OR fan-out of a query across ``multiprocessing`` worker
processes, each running the sequential engine on its alternative.
Because CPython's GIL serializes threads, real processes are the only
way to observe genuine OR-parallel wall-clock speedup in Python — and
even then only for coarse-grain alternatives (fork + pickle overhead
swamps small trees, which is itself an honest datum for the paper's
communication-cost discussion, the constant ``D`` of §6).

The split mirrors Conery & Kibler's OR-parallelism: alternatives of
the root goal are independent searches sharing nothing.  It is a
library, not a served engine: the service's lane worker (below) runs
the ``blog`` and ``machine`` engines only, which keep §5's sessions.
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
from dataclasses import dataclass, field
from typing import Generic, Optional, Sequence, TypeVar, Union

from ..logic.program import Program
from ..logic.solver import Solver
from ..logic.terms import Term, reset_var_counter
from ..logic.unify import Bindings, unify
from ..machine.blog_machine import MachineConfig
from ..ortree.tree import NodeStatus, OrTree
from ..weights.store import StoreDelta, WeightStore
from .config import BLogConfig
from .engine import BLogEngine

__all__ = [
    "ParallelAnswer",
    "or_parallel_solve",
    "or_split",
    "run_engine_query",
    "Op",
    "LoadProgram",
    "Query",
    "QueryReply",
    "CloseSession",
    "Shutdown",
    "LaneError",
    "LaneWorker",
    "lane_worker_main",
]

#: how often (seconds) an idle lane child checks that its parent lives
ORPHAN_CHECK_S = 0.5
#: first variable id a lane child allocates (see lane_worker_main)
CHILD_VAR_IDS = 1 << 48


@dataclass
class ParallelAnswer:
    """Answers gathered from all branches, with per-branch accounting."""

    answers: list[dict[str, str]] = field(default_factory=list)
    branches: int = 0
    per_branch_solutions: list[int] = field(default_factory=list)
    #: goals cut off at ``max_depth``, summed over the branch solvers:
    #: nonzero means answers may be missing
    depth_cutoffs: int = 0


def or_split(
    program: Program, query: str | Sequence[Term]
) -> list[tuple[tuple[Term, ...], tuple[Term, ...]]]:
    """Resolvents after one resolution step at the root (the OR fan-out),
    each with its query instance: ``(goals, answer)`` pairs."""
    tree = OrTree(program, query)
    tree.expand(0)
    return [(node.goals, node.answer) for node in map(tree.node, tree.root.children)]


def _solve_branch(payload: bytes) -> bytes:
    """Worker: run the sequential solver on one resolvent; returns its
    answers and depth cutoffs, pickled."""
    program, goals, answer, query_names, max_depth, max_solutions = pickle.loads(
        payload
    )
    solver = Solver(program, max_depth=max_depth)
    answers: list[dict[str, str]] = []
    sols: list[tuple[Term, ...]] = []
    if not goals:  # the branch is already a solution
        sols.append(answer)
    else:
        bindings = Bindings(solver.stats.unify)
        for _ in solver._solve(tuple(goals), bindings, 0, [False]):
            sols.append(tuple(bindings.resolve(a) for a in answer))
            if max_solutions is not None and len(sols) >= max_solutions:
                break
    for inst in sols:
        named: dict[str, str] = {}
        b = Bindings()
        # Recover named query-variable bindings by unifying the original
        # query pattern against this instance.
        for q, a in zip(query_names["query"], inst):
            unify(q, a, b)
        for name, var in query_names["vars"].items():
            named[name] = str(b.resolve(var))
        answers.append(named)
    return pickle.dumps((answers, solver.stats.depth_cutoffs))


def or_parallel_solve(
    program: Program,
    query: str | Sequence[Term],
    processes: int = 2,
    max_depth: int = 256,
    max_solutions_per_branch: Optional[int] = None,
) -> ParallelAnswer:
    """Solve ``query`` with the top OR fan-out spread over processes.

    Answers across branches are concatenated in branch order; within a
    branch they follow Prolog order.  Solution *sets* therefore match
    the sequential engine (order may interleave differently).
    """
    tree = OrTree(program, query)
    tree.expand(0)
    if not tree.root.children:
        # Zero OR alternatives at the root (unknown predicate, empty
        # fan-out): there is nothing to distribute, and handing an empty
        # job list to a pool would be wasted forks at best.  Answer
        # immediately with an empty result.
        return ParallelAnswer()
    query_names = {"query": tree.query, "vars": tree.query_vars}
    payloads = []
    direct: list[dict[str, str]] = []
    for cid in tree.root.children:
        node = tree.node(cid)
        if node.status is NodeStatus.SOLUTION:
            direct.append({k: str(v) for k, v in tree.solution_answer(node).items()})
            continue
        try:
            payloads.append(
                pickle.dumps(
                    (
                        program,
                        node.goals,
                        node.answer,
                        query_names,
                        max_depth,
                        max_solutions_per_branch,
                    )
                )
            )
        except Exception as exc:
            raise ValueError(
                "OR-parallel branch is not picklable for process transport "
                f"(branch goals: {', '.join(map(str, node.goals))}): {exc}"
            ) from exc
    result = ParallelAnswer(branches=len(payloads) + len(direct))
    result.answers.extend(direct)
    result.per_branch_solutions.extend([1] * len(direct))
    if not payloads:
        return result
    if processes <= 1 or len(payloads) == 1:
        chunks = [_solve_branch(p) for p in payloads]
    else:
        ctx = mp.get_context("fork" if "fork" in mp.get_all_start_methods() else None)
        with ctx.Pool(min(processes, len(payloads))) as pool:
            chunks = pool.map(_solve_branch, payloads)
    for chunk in chunks:
        answers, cutoffs = pickle.loads(chunk)
        result.answers.extend(answers)
        result.per_branch_solutions.append(len(answers))
        result.depth_cutoffs += cutoffs
    return result


# -- lane workers: one implementation of the lane protocol -----------------
#
# The serving layer runs one LaneWorker per lane.  It holds the lane's
# programs, a mirror of each program's global weight store (shipped whole
# once, then caught up with the committed entries it lacks), and the
# session-local engines of every session routed to the lane.  The parent
# speaks to it in the three message types below, one request at a time
# (lanes are serial queues, so there is never a second in-flight request
# to interleave with): a ``Query`` carries whatever its lane lacks to run
# it (the program, store entries; the session opens on first use),
# ``CloseSession`` takes a session's delta back, ``Shutdown`` ends a child.
# A thread lane calls ``worker.handle(msg)`` in process (queries on its
# executor), a process lane pickles the same messages over a duplex pipe
# to ``lane_worker_main`` in a child.  Every field is plain
# data — primitives, terms, programs, configs, store deltas — so a message
# a thread lane accepts also crosses the pipe.

R = TypeVar("R")

#: engine counters a query reply carries for the request's ``engine`` span
EngineAttrs = dict[str, Union[int, float, list[int], list[float]]]


class Op(Generic[R]):
    """A lane request whose reply is an ``R``."""

    __slots__ = ()

    def apply(self, worker: LaneWorker) -> R:
        """Run this request against the lane's worker state."""
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class LoadProgram:
    """A program and its configs, as a :class:`Query` ships them to a
    lane; the worker keeps it as its record of the program."""

    name: str
    program: Program
    config: BLogConfig
    machine_config: MachineConfig


@dataclass(frozen=True, slots=True)
class QueryReply:
    """Answers of one query, and whether the search ran to completion."""

    answers: list[dict[str, str]]
    expansions: Optional[int]
    complete: bool
    engine_attrs: EngineAttrs


@dataclass(frozen=True, slots=True)
class Query(Op[QueryReply]):
    """Run already-parsed goals in a session, bringing the lane up to
    date first: ``load`` installs the program with an empty mirror of
    its global store, ``sync`` writes the committed entries the mirror
    lacks (sessions open on it keep the entries it replaces, see
    :class:`~repro.weights.SessionStore`), and a session the worker
    does not hold is opened as an overlay on the mirror."""

    name: str
    session: str
    engine: str
    goals: tuple[Term, ...]
    max_solutions: Optional[int] = None
    load: Optional[LoadProgram] = None
    sync: Optional[StoreDelta] = None

    def apply(self, worker: LaneWorker) -> QueryReply:
        if self.load is not None:
            worker.programs[self.name] = self.load
            worker.mirrors[self.name] = WeightStore(n=self.load.config.n, a=self.load.config.a)
        mirror = worker.mirrors[self.name]
        if self.sync is not None:
            mirror.apply_delta(self.sync)
        load = worker.programs[self.name]
        engine = worker.sessions.get((self.name, self.session))
        opened = engine is None
        if engine is None:
            engine = BLogEngine(load.program, load.config, global_store=mirror)
            engine.begin_session()
            worker.sessions[(self.name, self.session)] = engine
        reply = run_engine_query(self, engine, load.machine_config)
        if opened:
            reply.engine_attrs["opened_session"] = True
        return reply


@dataclass(frozen=True, slots=True)
class CloseSession(Op[Optional[StoreDelta]]):
    """End a session; replies with its touched-keys delta (the parent
    merges it into the true global store), or None if it is not open."""

    name: str
    session: str

    def apply(self, worker: LaneWorker) -> Optional[StoreDelta]:
        engine = worker.sessions.pop((self.name, self.session), None)
        if engine is None:
            return None
        delta = engine.sessions.session_delta()
        engine.sessions.abort_session()  # merged by the parent, not here
        return delta


@dataclass(frozen=True, slots=True)
class Shutdown(Op[None]):
    """Acknowledged; a process lane's child loop then exits."""

    def apply(self, worker: LaneWorker) -> None:
        return None


@dataclass(frozen=True, slots=True)
class LaneError:
    """The reply to a request that raised: ``"<Type>: <message>"``."""

    error: str


class LaneWorker:
    """The lane side of the §5 session protocol: the state the lane
    messages act on.

    :meth:`handle` never raises: any exception, a non-message included,
    becomes a :class:`LaneError` reply, the same on both transports.
    """

    def __init__(self, lane: int) -> None:
        self.lane = lane
        self.programs: dict[str, LoadProgram] = {}
        self.mirrors: dict[str, WeightStore] = {}
        #: (program, session) -> the engine of that open session
        self.sessions: dict[tuple[str, str], BLogEngine] = {}

    def handle(self, msg: Op[R]) -> Union[R, LaneError]:
        try:
            if not isinstance(msg, Op):
                raise TypeError(f"not a lane message: {type(msg).__name__}")
            return msg.apply(self)
        except Exception as exc:  # noqa: BLE001 — shipped to the parent
            return LaneError(f"{type(exc).__name__}: {exc}")


def run_engine_query(
    query: Query, blog_engine: BLogEngine, machine_config: MachineConfig
) -> QueryReply:
    """Run ``query`` on its chosen engine against a session's engine state.

    Called by :class:`Query` on the lane's worker, on both lane
    transports, so answers are backend-independent.  The reply holds the
    answers, the expansion count, whether the search was complete (no
    expansion limit or depth cutoff ended it early), and engine-level
    counters (expansions, pruned chains, solution bounds, machine
    makespan …) that land on the request's ``engine`` span.
    """
    goals, max_solutions = query.goals, query.max_solutions
    if query.engine == "blog":
        result = blog_engine.query(goals, max_solutions=max_solutions)
        attrs: EngineAttrs = {
            "expansions": result.expansions,
            "generated": result.generated,
            "pruned": result.pruned,
            "failures": result.failures,
        }
        if result.expansions_to_first is not None:
            attrs["expansions_to_first"] = result.expansions_to_first
        if result.solution_bounds:
            attrs["solution_bounds"] = [round(b, 6) for b in result.solution_bounds[:16]]
        answers = [{k: str(v) for k, v in a.items()} for a in result.answers]
        return QueryReply(answers, result.expansions, result.complete, attrs)
    if query.engine == "machine":
        res = blog_engine.run_machine(goals, machine_config, max_solutions=max_solutions)
        return QueryReply(
            [{k: str(v) for k, v in a.items()} for a in res.answers],
            res.expansions,
            res.complete,
            {
                "expansions": res.expansions,
                "makespan": res.makespan,
                "migrations": res.migrations,
                "utilization": round(res.mean_utilization, 6),
            },
        )
    raise ValueError(f"unknown engine {query.engine!r}")


def lane_worker_main(conn, lane: int) -> None:  # pragma: no cover — subprocess
    """Main loop of a process-lane child: one pickled lane message in,
    one :meth:`LaneWorker.handle` reply out, until :class:`Shutdown` or
    until the parent is gone.

    The parent counts as gone when the pipe reaches EOF *or* the child
    is re-parented.  EOF alone is not enough: under ``fork`` every
    child inherits parent ends of lane pipes (its own among them), so
    a SIGKILLed server leaves pipes with a live writer and no EOF ever
    arrives.  The re-parenting check works under ``fork`` and
    ``spawn`` alike.
    """
    import os
    import signal

    # The parent owns lifecycle; a stray terminal SIGINT (e.g. during
    # pytest) must not kill lanes before the parent can shut them down.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # query goals arrive parsed, their variable ids drawn from the
    # parent's counter: draw this process's fresh ids (renaming clauses
    # apart) from a range the parent never reaches, so they cannot collide
    reset_var_counter(CHILD_VAR_IDS)
    parent = os.getppid()
    worker = LaneWorker(lane)
    while True:
        try:
            while not conn.poll(ORPHAN_CHECK_S):
                if os.getppid() != parent:
                    return  # the server died without hanging up
            msg = pickle.loads(conn.recv_bytes())
        # parent hung up: the child's only move is to exit; the parent
        # side counts the lane reset
        except (EOFError, OSError):  # blogcheck: ignore[BLG005]
            return
        reply = worker.handle(msg)
        try:
            conn.send_bytes(pickle.dumps(reply))
        # reply pipe gone: parent died or reset the lane; the parent
        # already treats the silence as WorkerDied
        except (BrokenPipeError, OSError):  # blogcheck: ignore[BLG005]
            return
        if isinstance(msg, Shutdown):
            return
