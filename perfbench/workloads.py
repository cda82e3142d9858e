"""The two workloads, each driven through the system's public API.

* ``engine-solve`` — the library path: a fresh ``BLogEngine`` per query
  over a fixed cycle of three 5-queens (all solutions) and one nrev/30
  (first answer) queries, each in its own §5 session.
* ``serve-cached`` — ``BLogService.submit`` / ``end_session`` in process,
  thread lanes, answer cache on, durable merges.  Its clients are closed
  loops of session users: each reads one answer before asking the next
  similar query.  Every client owns its program (the same family program
  served under one name per client) and its sessions, so the work a
  client does depends only on its own stream and the run's work
  fingerprint repeats exactly.
"""

from __future__ import annotations

import asyncio
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from repro.core import BLogConfig, BLogEngine
from repro.logic.program import Program
from repro.logic.solver import Solver
from repro.service import BLogService, NotServing, Overloaded, QueryRequest
from repro.workloads import NREV_SOURCE, board_from_term, nqueens_program, nqueens_query

from .inputs import (
    NREV_LENGTH,
    QUEENS_N,
    FamilyInputs,
    build_family,
    nrev_lists,
    nrev_text,
    queens_boards,
    reversed_text,
    session_ops,
)
from .layers import EngineWrappers, SpanTally

__all__ = ["Outcome", "run_workload"]

#: set-ups per run; the run reports their median
SETUPS = 9
#: chains of nrev/30 are 496 resolutions deep
ENGINE_CONFIG = BLogConfig(max_depth=1024)
#: a 5-queens query takes about 0.17 s and an nrev/30 query about
#: 0.25 s; with three queens per nrev the median sits inside the queens
#: mode and the tail (about p93 of some 150 queries) inside the nrev mode
QUEENS_PER_CYCLE = 3
CLIENTS = 2
LANES = 2
#: per-client operations covered by the work fingerprint; a run whose
#: clients do not all reach them is inconsistent
FINGERPRINT_OPS = 4000
#: holds every distinct query of both clients (about 4,100): an evicted
#: line would make hit counts depend on how the clients interleave
CACHE_LINES = 8192


@dataclass
class Outcome:
    """What one run measured, before it is turned into metrics."""

    setup_s: list[float]
    latency_ms: list[float]
    merge_ms: list[float]
    elapsed_s: float
    queries: int
    attempted: int
    errors: int = 0
    refusals: int = 0
    wrong: int = 0
    #: the run's own consistency checks (repeatable work, cache model)
    consistent: bool = True
    fingerprint: Optional[dict] = None
    config: dict = field(default_factory=dict)
    #: per-query shape label, parallel to latency_ms (engine-solve)
    shapes: list[str] = field(default_factory=list)
    layers: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return self.errors + self.refusals + self.wrong


# -- engine-solve --------------------------------------------------------------


def _solve_once(program: Program, query: str, max_solutions: Optional[int]):
    """One library query in its own session: (answers, work counts, query
    seconds, merge seconds).  Query time includes building the engine.

    Only the answers and counts outlive the call: a tree kept alive
    through the next query would make that query's collector passes, and
    so its latency, depend on which shape ran before it."""
    t0 = time.perf_counter()
    engine = BLogEngine(program, ENGINE_CONFIG)
    engine.begin_session()
    result = engine.query(query, max_solutions=max_solutions, keep_tree=True)
    t1 = time.perf_counter()
    report = engine.end_session()
    t2 = time.perf_counter()
    work = {"expansions": result.expansions, "generated": result.generated,
            "words_copied": result.tree.words_copied, "merges_adopted": report.adopted,
            "generation": engine.sessions.global_store.generation}
    return result.answers, work, t1 - t0, t2 - t1


def run_engine_solve(seed: int, seconds: float, traced: bool) -> Outcome:
    boards = queens_boards()
    lists = nrev_lists(seed)
    setup_s = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        queens = nqueens_program(QUEENS_N)
        nrev = Program.from_source(NREV_SOURCE)
        items = next(lists)
        warm = BLogEngine(nrev, ENGINE_CONFIG).query(nrev_text(items), max_solutions=1)
        setup_s.append(time.perf_counter() - t0)

    def cycle() -> list[tuple]:
        """(shape, program, query, max_solutions, expected nrev answer);
        every cycle reverses a new list, with the same work."""
        items = next(lists)
        return [("queens", queens, nqueens_query(), None, None)] * QUEENS_PER_CYCLE + [
            ("nrev", nrev, nrev_text(items), 1, reversed_text(items))]

    def correct(shape: str, answers: list[dict], expected: Optional[str]) -> bool:
        if shape == "queens":
            return sorted(board_from_term(a["Qs"]) for a in answers) == boards
        return len(answers) == 1 and str(answers[0]["R"]) == expected

    out = Outcome(setup_s=setup_s, latency_ms=[], merge_ms=[], elapsed_s=0.0, queries=0,
                  attempted=0)
    out.wrong += not correct("nrev", warm.answers, reversed_text(items))
    out.config = {"path": "library", "engine": "fresh BLogEngine per query",
                  "cycle": [f"queens{QUEENS_N}-all"] * QUEENS_PER_CYCLE
                  + [f"nrev{NREV_LENGTH}-first"]}
    wrappers = EngineWrappers() if traced else None
    fingerprint, first = None, None
    if wrappers is not None:
        wrappers.install()
    start = time.perf_counter()
    try:
        while True:
            work: dict[str, Any] = {"answers": 0, "expansions": 0, "generated": 0,
                                    "words_copied": 0, "merges_adopted": 0, "generations": []}
            queries = cycle()
            first = first or queries
            for shape, program, query, max_solutions, expected in queries:
                out.attempted += 1
                answers, counts, q_s, m_s = _solve_once(program, query, max_solutions)
                out.queries += 1
                out.latency_ms.append(q_s * 1000.0)
                out.merge_ms.append(m_s * 1000.0)
                out.shapes.append(shape)
                out.wrong += not correct(shape, answers, expected)
                work["answers"] += len(answers)
                for key in ("expansions", "generated", "words_copied", "merges_adopted"):
                    work[key] += counts[key]
                work["generations"].append(counts["generation"])
            if fingerprint is None:
                fingerprint = work
            elif work != fingerprint:
                out.consistent = False  # every cycle must repeat the same work
            if time.perf_counter() - start >= seconds:
                break
    finally:
        out.elapsed_s = time.perf_counter() - start
        if wrappers is not None:
            wrappers.uninstall()
    out.fingerprint = {"per_cycle": fingerprint}
    if wrappers is not None:
        cycles = out.queries // len(first)
        out.layers = {"engine": wrappers.totals(), "counts": wrappers.counts(),
                      "expansions": fingerprint["expansions"] * cycles,
                      "calibration": _calibrate(first)}
    return out


def _calibrate(cycle) -> dict:
    """Untraced engine time against the sequential ``Solver`` on each
    query of the cycle (best of two), after the wrappers are removed."""
    rows = {}
    for i, (shape, program, query, max_solutions, _) in enumerate(dict.fromkeys(cycle)):
        engine_s, expansions = [], 0
        for _ in range(2):
            _, counts, q_s, _ = _solve_once(program, query, max_solutions)
            engine_s.append(q_s)
            expansions = counts["expansions"]
        solver_s = []
        for _ in range(3):
            t0 = time.perf_counter()
            Solver(program, max_depth=ENGINE_CONFIG.max_depth).solve_all(query, max_solutions)
            solver_s.append(time.perf_counter() - t0)
        rows[f"{shape}{i}"] = {"engine_s": min(engine_s), "solver_s": min(solver_s),
                               "expansions": expansions}
    return rows


# -- serve-cached ----------------------------------------------------------------


@dataclass
class _ClientState:
    """One client's running counts; ``snapshot`` is the fingerprint."""

    ops: int = 0
    queries: int = 0
    answers: int = 0
    expansions: int = 0
    hits: int = 0
    stale: int = 0
    merges: int = 0
    merges_adopted: int = 0
    generation: int = 0
    attempted: int = 0
    errors: int = 0
    refusals: int = 0
    wrong: int = 0
    empty_merges: int = 0
    latency_ms: list = field(default_factory=list)
    merge_ms: list = field(default_factory=list)
    filled: set = field(default_factory=set)
    #: sessions begun per query shape, each about a new subject
    new_subjects: dict = field(default_factory=dict)
    snapshot: Optional[dict] = None

    def work(self) -> dict:
        return {"ops": self.ops, "answers": self.answers, "expansions": self.expansions,
                "cache_hits": self.hits, "cache_stale": self.stale, "merges": self.merges,
                "merges_adopted": self.merges_adopted, "store_generation": self.generation}


def _program(client: int) -> str:
    return f"fam{client}"


async def _start_service(family: FamilyInputs, data_dir: Path) -> BLogService:
    """Set-up: build and start a service (parsing every client's program)
    and warm up, so the measured window pays no lane start, program load
    or first-use cost."""
    service = BLogService({_program(c): family.source for c in range(CLIENTS)},
                          n_workers=LANES, backend="thread", data_dir=data_dir,
                          cache_capacity=CACHE_LINES)
    await service.start()
    # warm every lane with every program: one engine query and one merge
    warm = family.query("f", family.pools["f"][0])
    ok = True
    for c in range(CLIENTS):
        lanes_done: set[int] = set()
        k = 0
        while len(lanes_done) < LANES:
            session = f"warm{c}-{k}"
            k += 1
            lane = service.router.lane_for(session)
            if lane in lanes_done:
                continue
            lanes_done.add(lane)
            resp = await service.submit(QueryRequest(
                _program(c), warm, session=session, cache=False, request_id=f"warm{c}-{lane}"))
            ok &= resp.ok and family.check(warm, resp.answers or [])
            ok &= await service.end_session(_program(c), session) is not None
    if not ok:
        await _stop_service(service, data_dir)
        raise RuntimeError("warm-up query failed")
    return service


async def _stop_service(service: BLogService, data_dir: Path) -> None:
    await service.stop()
    shutil.rmtree(data_dir, ignore_errors=True)


async def _drive(service: BLogService, family: FamilyInputs, c: int, seed: int,
                 deadline: float, state: _ClientState, prefix: int) -> None:
    """One client's closed loop; the router places its sessions on lanes."""
    program = _program(c)
    for op in session_ops(family, seed, c):
        if time.perf_counter() >= deadline:
            return
        state.attempted += 1
        if op.query is None:
            t0 = time.perf_counter()
            report = await service.end_session(program, op.session)
            state.merge_ms.append((time.perf_counter() - t0) * 1000.0)
            if report is None:
                state.empty_merges += 1  # a merged session must have run the engine
            else:
                state.merges += 1
                state.merges_adopted += report.adopted
                state.generation = report.generation
        else:
            if op.fresh:
                shape = op.query.split("(", 1)[0]
                state.new_subjects[shape] = state.new_subjects.get(shape, 0) + 1
            t0 = time.perf_counter()
            try:
                resp = await service.submit(QueryRequest(
                    program, op.query, session=op.session, cache=not op.fresh,
                    request_id=f"c{c}-{state.ops}"))
            except (Overloaded, NotServing):
                resp = None
            state.latency_ms.append((time.perf_counter() - t0) * 1000.0)
            state.queries += 1
            if resp is None:
                state.refusals += 1
            elif not resp.ok:
                state.errors += 1
            else:
                answers = resp.answers or []
                state.answers += len(answers)
                state.wrong += not family.check(op.query, answers)
                if resp.cached:
                    state.hits += 1
                else:
                    state.expansions += resp.expansions or 0
                    if not op.fresh:
                        # no line is ever evicted, so a lookup miss on a
                        # line this client filled is a stale line
                        state.stale += op.query in state.filled
                        state.filled.add(op.query)
        state.ops += 1
        if state.ops == prefix:
            state.snapshot = state.work()
        await asyncio.sleep(0)  # the user reads the answer; other clients run


async def run_serve_cached(seed: int, seconds: float, traced: bool, tmp_dir: Path,
                           prefix: int) -> Outcome:
    family = build_family(seed)
    setup_s = []
    service, data_dir = None, None
    for i in range(SETUPS):
        data_dir = Path(tempfile.mkdtemp(prefix="data-", dir=tmp_dir))
        t0 = time.perf_counter()
        service = await _start_service(family, data_dir)
        setup_s.append(time.perf_counter() - t0)
        if i < SETUPS - 1:
            await _stop_service(service, data_dir)
    assert service is not None and data_dir is not None
    states = [_ClientState() for _ in range(CLIENTS)]
    wrappers = EngineWrappers() if traced else None
    spans = SpanTally() if traced else None
    try:
        cache_before = service.cache.stats()
        lanes_before = service.pool.lane_stats()
        if wrappers is not None:
            wrappers.install(router=True)
        if spans is not None:
            service.telemetry.tracer.on_finish.append(spans)
        start = time.perf_counter()
        try:
            await asyncio.gather(*(
                _drive(service, family, c, seed, start + seconds, states[c], prefix)
                for c in range(CLIENTS)))
        finally:
            elapsed = time.perf_counter() - start
            if wrappers is not None:
                wrappers.uninstall()
            if spans is not None:
                service.telemetry.tracer.on_finish.remove(spans)
        cache_after = service.cache.stats()
        lanes_after = service.pool.lane_stats()
    finally:
        await _stop_service(service, data_dir)

    out = Outcome(setup_s=setup_s, latency_ms=[], merge_ms=[], elapsed_s=elapsed, queries=0,
                  attempted=0)
    for st in states:
        out.latency_ms += st.latency_ms
        out.merge_ms += st.merge_ms
        out.queries += st.queries
        out.attempted += st.attempted
        out.errors += st.errors + st.empty_merges
        out.refusals += st.refusals
        out.wrong += st.wrong
    cache = {k: cache_after[k] - cache_before[k] for k in ("hits", "misses", "stale")}
    snaps = [st.snapshot for st in states]
    # the clients' own view of the cache must match the service's
    # counters, and every client must reach the fingerprinted prefix
    out.consistent = (cache["hits"] == sum(st.hits for st in states)
                      and cache["stale"] == sum(st.stale for st in states)
                      and all(s is not None for s in snaps))
    out.fingerprint = {"prefix_ops_per_client": prefix, "clients": snaps}
    respawns = sum(l["respawns"] for l in lanes_after) - sum(l["respawns"] for l in lanes_before)
    out.config = {"path": "in-process submit", "backend": "thread", "lanes": LANES,
                  "clients": CLIENTS, "cache": True, "durable": True}
    merges = sum(st.merges for st in states)
    # the traffic the session mix produced (see inputs.py)
    out.info = {"cache": cache, "respawns": respawns, "merges": merges,
                "hit_ratio": cache["hits"] / max(out.queries, 1),
                "merges_per_query": merges / max(out.queries, 1),
                "merges_adopted": sum(st.merges_adopted for st in states),
                "engine_runs": out.queries - cache["hits"],
                # past 1, a client's sessions ask about subjects it already
                # asked about, learn nothing new and stop staling cache lines
                "pool_use": max((n / len(family.pools[shape])
                                 for st in states for shape, n in st.new_subjects.items()),
                                default=0.0)}
    if wrappers is not None:
        out.layers = {"spans": spans, "engine": wrappers.totals(), "counts": wrappers.counts(),
                      "expansions": sum(st.expansions for st in states)}
    return out


def run_workload(name: str, seed: int, seconds: float, traced: bool, tmp_dir: Path,
                 fingerprint_ops: Optional[int] = None) -> Outcome:
    """Run one workload; ``fingerprint_ops`` overrides the per-client
    prefix a ``serve-cached`` run fingerprints (short runs need a shorter
    one)."""
    if name == "engine-solve":
        return run_engine_solve(seed, seconds, traced)
    prefix = fingerprint_ops or FINGERPRINT_OPS
    return asyncio.run(run_serve_cached(seed, seconds, traced, tmp_dir, prefix))
