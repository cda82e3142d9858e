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
the root goal are independent searches sharing nothing.
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..logic.program import Program
from ..logic.solver import Solver
from ..logic.terms import Term, reset_var_counter
from ..ortree.tree import NodeStatus, OrTree
from ..weights.persist import apply_delta, store_delta
from ..weights.store import WeightStore
from .engine import BLogEngine

__all__ = [
    "ParallelAnswer",
    "or_parallel_solve",
    "or_split",
    "run_engine_query",
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


def or_split(program: Program, query: str | Sequence[Term]) -> list[tuple[Term, ...]]:
    """Resolvents after one resolution step at the root (the OR fan-out)."""
    tree = OrTree(program, query)
    tree.expand(0)
    out: list[tuple[Term, ...]] = []
    for cid in tree.root.children:
        node = tree.node(cid)
        out.append((node.goals, node.answer))  # type: ignore[arg-type]
    return out


def _solve_branch(payload: bytes) -> bytes:
    """Worker: run the sequential solver on one resolvent; returns its
    answers and depth cutoffs, pickled."""
    program, goals, answer, query_names, max_depth, max_solutions = pickle.loads(
        payload
    )
    solver = Solver(program, max_depth=max_depth)
    from ..logic.unify import Bindings, unify

    answers: list[dict[str, str]] = []
    if not goals:  # the branch is already a solution
        b = Bindings()
        sols = [answer]
    else:
        sols = []
        bindings = Bindings(solver.stats.unify)
        count = 0
        for _ in solver._solve(tuple(goals), bindings, 0, [False]):
            sols.append(tuple(bindings.resolve(a) for a in answer))
            count += 1
            if max_solutions is not None and count >= max_solutions:
                break
    for inst in sols:
        named: dict[str, str] = {}
        b = Bindings()
        from ..logic.terms import term_vars

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
        ctx = mp.get_context("fork") if "fork" in mp.get_all_start_methods() else mp
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
# programs, a mirror of each program's global weight store (caught up by
# deltas, never reshipped whole), and the session-local engines of every
# session routed to the lane.  The parent speaks to it in dicts, one
# request at a time (lanes are serial queues, so there is never a second
# in-flight request to interleave with): a thread lane calls
# ``worker.handle(msg)`` in process (queries on its executor), a process
# lane pickles the same dicts over a duplex pipe to ``lane_worker_main``
# in a child.


class LaneWorker:
    """The lane side of the §5 session protocol.  Ops:

    * ``load_program`` — install a program + configs, create an empty
      global-store mirror for it;
    * ``sync_store`` — apply a weight delta to a program's mirror;
    * ``open_session`` — begin a session (local store = mirror copy);
    * ``query`` — run already-parsed goals on the named session's engine;
    * ``close_session`` — return the session's touched-keys delta (the
      parent merges it into the true global store);
    * ``shutdown`` — acknowledge (the child loop then exits).

    :meth:`handle` never raises for a failing op: any exception becomes
    an ``{"ok": False, "error": ...}`` reply, the same on both
    transports.
    """

    def __init__(self, lane: int, processes: int = 1) -> None:
        self.lane = lane
        #: process count for the ``procpool`` engine (1 inside a lane
        #: child: daemonic processes cannot fork a pool)
        self.processes = processes
        self.programs: dict[str, tuple[Program, object, object]] = {}
        self.mirrors: dict[str, WeightStore] = {}
        #: (program, session) -> (engine, local-store generation at open)
        self.sessions: dict[tuple[str, str], tuple[BLogEngine, int]] = {}

    def handle(self, msg: dict) -> dict:
        op = msg.get("op")
        method = getattr(self, f"_op_{op}", None)
        if method is None:
            return {"ok": False, "error": f"unknown lane op {op!r}"}
        try:
            return method(msg)
        except Exception as exc:  # noqa: BLE001 — shipped to the parent
            return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}

    def _op_load_program(self, msg: dict) -> dict:
        name, config = msg["name"], msg["config"]
        self.programs[name] = (msg["program"], config, msg["machine_config"])
        self.mirrors[name] = WeightStore(n=config.n, a=config.a)
        return {"ok": True}

    def _op_sync_store(self, msg: dict) -> dict:
        return {"ok": True, "applied": apply_delta(self.mirrors[msg["name"]], msg["delta"])}

    def _op_open_session(self, msg: dict) -> dict:
        name = msg["name"]
        program, config, _ = self.programs[name]
        engine = BLogEngine(program, config, global_store=self.mirrors[name])
        engine.begin_session()
        self.sessions[(name, msg["session"])] = (engine, engine.store.generation)
        return {"ok": True}

    def _op_query(self, msg: dict) -> dict:
        key = (msg["name"], msg["session"])
        if key not in self.sessions:
            raise KeyError(f"session {key[1]!r} of {key[0]!r} is not open on lane {self.lane}")
        engine, _ = self.sessions[key]
        program, config, machine_config = self.programs[key[0]]
        attrs: dict = {}
        answers, expansions, complete = run_engine_query(
            msg["engine"],
            engine,
            program,
            config,
            machine_config,
            msg["goals"],
            msg.get("max_solutions"),
            processes=self.processes,
            attrs=attrs,
        )
        # engine counters ride the reply so the parent can attach them
        # to the request's engine span (telemetry)
        return {
            "ok": True,
            "answers": answers,
            "expansions": expansions,
            "complete": complete,
            "engine_attrs": attrs,
        }

    def _op_close_session(self, msg: dict) -> dict:
        state = self.sessions.pop((msg["name"], msg["session"]), None)
        if state is None:
            return {"ok": True, "delta": None}
        engine, base_generation = state
        return {"ok": True, "delta": store_delta(engine.store, since=base_generation)}

    def _op_shutdown(self, msg: dict) -> dict:
        return {"ok": True}


def run_engine_query(
    engine_used: str,
    blog_engine,
    program: Program,
    config,
    machine_config,
    goals,
    max_solutions: Optional[int],
    processes: int = 1,
    attrs: Optional[dict] = None,
) -> tuple[list[dict[str, str]], Optional[int], bool]:
    """Run one query on the chosen engine against a session's engine state.

    Called by :meth:`LaneWorker.handle` for the ``query`` op, on both
    lane transports, so answers are backend-independent.  Returns the
    answers, the expansion count and whether the search was complete
    (no expansion limit or depth cutoff ended it early).

    ``attrs``, when given, is filled with engine-level counters
    (expansions, pruned chains, solution bounds, machine makespan …) for
    the telemetry layer; the worker returns it in its reply, so the
    same attributes land on the request's ``engine`` span either way.
    """
    if engine_used == "blog":
        result = blog_engine.query(goals, max_solutions=max_solutions)
        answers = [{k: str(v) for k, v in a.items()} for a in result.answers]
        if attrs is not None:
            attrs["expansions"] = result.expansions
            attrs["generated"] = result.generated
            attrs["pruned"] = result.pruned
            attrs["failures"] = result.failures
            if result.expansions_to_first is not None:
                attrs["expansions_to_first"] = result.expansions_to_first
            if result.solution_bounds:
                attrs["solution_bounds"] = [
                    round(b, 6) for b in result.solution_bounds[:16]
                ]
        return answers, result.expansions, result.complete
    if engine_used == "machine":
        from dataclasses import replace as _replace

        from ..machine.blog_machine import BLogMachine

        store = blog_engine.store
        tree = OrTree(
            program,
            goals,
            weight_fn=store.weight_fn(),
            arc_key_policy=config.arc_key_policy,
            max_depth=config.max_depth,
        )
        cfg = machine_config
        if max_solutions is not None:
            cfg = _replace(cfg, max_solutions=max_solutions)
        res = BLogMachine(cfg, store=store).run(tree)
        answers = [{k: str(v) for k, v in a.items()} for a in res.answers]
        if attrs is not None:
            attrs["expansions"] = res.expansions
            attrs["makespan"] = res.makespan
            attrs["migrations"] = res.migrations
            attrs["utilization"] = round(res.mean_utilization, 6)
        complete = tree.depth_cutoffs == 0 and res.expansions < cfg.max_expansions
        return answers, res.expansions, complete
    if engine_used == "procpool":
        # Inside a daemonic lane worker this must stay serial (daemons
        # cannot fork grandchildren); processes=1 short-circuits the pool.
        par = or_parallel_solve(
            program,
            goals,
            processes=processes,
            max_depth=config.max_depth,
            max_solutions_per_branch=max_solutions,
        )
        if attrs is not None:
            attrs["branches"] = par.branches
            attrs["branch_solutions"] = list(par.per_branch_solutions)
        return list(par.answers), None, par.depth_cutoffs == 0
    raise ValueError(f"unknown engine {engine_used!r}")


def lane_worker_main(conn, lane: int) -> None:  # pragma: no cover — subprocess
    """Main loop of a process-lane child: one pickled dict in, one
    :meth:`LaneWorker.handle` reply out, until ``shutdown`` or until
    the parent is gone.

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
        if msg.get("op") == "shutdown":
            return
