"""The B-LOG query service: a concurrent front-end over the engine.

This is the serving layer the ROADMAP's north star asks for: many
clients, one installation.  One :class:`BLogService` holds a registry
of named programs, each with its own global weight store, and serves
:class:`QueryRequest`\\ s two ways:

* **in-process** — ``await service.submit(request)``;
* **over TCP** — one JSON object per line (``serve_tcp``), the same
  requests and responses serialized.

Concurrency contract (who touches what, from where):

* The **event loop thread** is the only mutator of global weight
  stores: it ships store deltas to lanes on session open and merges
  the touched-keys delta a lane returns at session close, serialized
  per lane.
* Each lane's **worker** (:class:`~repro.core.procpool.LaneWorker`)
  holds the lane's store mirrors and its sessions' engines and local
  stores, and executes their queries — on a worker thread
  (``backend="thread"``) or in a warm lane subprocess
  (``backend="process"``); the same protocol either way.  The router's
  lane affinity guarantees at most one in-flight request per lane.  A
  lane whose worker dies or misses a deadline is reset (fresh worker),
  and the in-flight query is replayed exactly once against a freshly
  opened session after a death; every other session that lived in the
  lost worker is abandoned, never merged.
* The answer cache and stats are loop-thread-only.

Request lifecycle: admission (bounded pending, explicit
:class:`~repro.service.admission.Overloaded`) → cache lookup
(generation-guarded) → route to the session's lane → execute with
deadline and one retry on worker death → record trace, fill cache.
A ``machine``-engine request degrades to the sequential ``blog`` engine
when the service is loaded past ``degrade_pending`` — the simulator is
the expensive engine, and under pressure a correct answer now beats a
cycle-accurate answer later.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional, Union

from ..core.config import BLogConfig
from ..logic.parser import ParseError, parse_query
from ..logic.program import Program
from ..machine.blog_machine import MachineConfig
from ..weights.persist import store_delta
from ..weights.session import MergeReport
from ..weights.store import WeightStore
from ..weights.wal import DurableStore
from .admission import AdmissionController, Overloaded
from .cache import AnswerCache, canonical_cache_key, canonical_query, slot_names
from .lifecycle import LifecycleState, NotServing, ServiceLifecycle
from .router import SessionRouter
from .stats import ServiceStats
from .telemetry import Telemetry, Trace
from .workers import Job, QueryTimeout, WorkerDied, WorkerPool

__all__ = ["QueryRequest", "QueryResponse", "ProgramEntry", "BLogService"]

ENGINES = ("blog", "machine", "procpool")
#: longest TCP request line accepted (bytes, newline included); a longer
#: line gets an error reply and is skipped, the connection lives on
LINE_LIMIT = 1 << 16


@dataclass
class QueryRequest:
    """One query: which program, what goals, whose session, which engine."""

    program: str
    query: str
    session: str = "default"
    engine: str = "blog"
    max_solutions: Optional[int] = None
    timeout: Optional[float] = None  # seconds; service default when None
    cache: bool = True  # False: always execute (and don't fill the cache)
    request_id: Optional[str] = None

    @classmethod
    def from_dict(cls, d: dict) -> "QueryRequest":
        return cls(
            program=d.get("program", "default"),
            query=d["query"],
            session=str(d.get("session", "default")),
            engine=d.get("engine", "blog"),
            max_solutions=d.get("max_solutions"),
            timeout=d.get("timeout"),
            cache=bool(d.get("cache", True)),
            request_id=d.get("id"),
        )


@dataclass
class QueryResponse:
    """What came back, plus where the request's time went."""

    request_id: str
    ok: bool
    answers: list[dict[str, str]] = field(default_factory=list)
    error: Optional[str] = None
    cached: bool = False
    engine: str = "blog"
    degraded: bool = False
    retries: int = 0
    expansions: Optional[int] = None
    #: False when an expansion limit or depth cutoff ended the search
    #: early: the answers may be partial, and they are not cached
    complete: bool = True
    queue_wait_ms: float = 0.0
    engine_ms: float = 0.0

    def to_dict(self) -> dict:
        return {"id": self.request_id, **{
            k: v for k, v in asdict(self).items() if k != "request_id"
        }}


@dataclass
class ProgramEntry:
    """One served knowledge base: program + its global weight store."""

    name: str
    program: Program
    global_store: WeightStore
    config: BLogConfig
    machine_config: MachineConfig


class BLogService:
    """A concurrent B-LOG query service over named programs.

    Parameters
    ----------
    programs:
        ``{name: Program | source text}`` — the knowledge bases served.
    config / machine:
        Engine constants and machine topology shared by all programs.
    n_workers:
        Lane count = worker-thread count = max truly concurrent queries.
    max_pending:
        Admission bound on queued + executing queries (backpressure).
    default_timeout:
        Per-query deadline (seconds) when the request names none.
    degrade_pending:
        Pending-query level above which ``machine`` requests fall back
        to the sequential engine; defaults to ``2 * n_workers``.
    processes:
        Process count for the ``procpool`` engine's OR split.
    backend:
        Lane execution backend: ``"thread"`` (shared GIL-bound
        executor, zero serialization) or ``"process"`` (one warm
        subprocess per lane, genuinely parallel engine work; E17).
    mp_context:
        multiprocessing start method for process lanes (default: fork
        where available, else spawn).
    slow_query_ms:
        When set, any request whose wall time crosses the threshold has
        its full span tree dumped to the slow-query sink (stderr by
        default; see :class:`~repro.service.telemetry.Telemetry`).
    trace_log:
        When set, every finished request's spans are appended to this
        JSONL file (one object per span, size-rotated).
    data_dir:
        When set, the global weight stores are **durable**: every
        acknowledged session merge is WAL-journaled (fsynced before the
        ack) under ``data_dir/<program>/``, boot replays snapshot +
        journal, and ``stop``/drain writes a final checkpoint.  None
        (the default) keeps the historical in-memory behavior.
    checkpoint_interval:
        Seconds between periodic snapshots compacting the journal
        (only meaningful with ``data_dir``); None disables the periodic
        task — checkpoints then happen only at stop/drain.
    drain_timeout:
        Deadline (seconds) for in-flight work during a graceful drain;
        queued work past it is cancelled, never run late.
    """

    def __init__(
        self,
        programs: dict[str, Union[Program, str]],
        config: Optional[BLogConfig] = None,
        machine: Optional[MachineConfig] = None,
        n_workers: int = 4,
        max_pending: int = 64,
        cache_capacity: int = 1024,
        default_timeout: float = 30.0,
        degrade_pending: Optional[int] = None,
        processes: int = 2,
        backend: str = "thread",
        mp_context: Optional[str] = None,
        slow_query_ms: Optional[float] = None,
        trace_log: Optional[str] = None,
        trace_log_max_bytes: int = 10_000_000,
        data_dir: Optional[Union[str, Path]] = None,
        checkpoint_interval: Optional[float] = None,
        drain_timeout: float = 10.0,
    ):
        self.config = config if config is not None else BLogConfig()
        self.machine_config = (
            machine if machine is not None else MachineConfig(n_processors=4)
        )
        self.programs: dict[str, ProgramEntry] = {}
        for name, prog in programs.items():
            self.add_program(name, prog)
        self.n_workers = int(n_workers)
        self.default_timeout = float(default_timeout)
        self.degrade_pending = (
            int(degrade_pending) if degrade_pending is not None else 2 * self.n_workers
        )
        self.processes = int(processes)
        self.backend = backend
        self.telemetry = Telemetry(
            slow_query_s=(slow_query_ms / 1000.0) if slow_query_ms else None,
        )
        if trace_log:
            self.telemetry.attach_trace_log(
                trace_log, max_bytes=trace_log_max_bytes
            )
        registry = self.telemetry.registry
        self.router = SessionRouter(self.n_workers, registry=registry)
        self.pool = WorkerPool(
            self.n_workers, backend=backend, mp_context=mp_context,
            processes=self.processes,
        )
        self.lane_resets = 0
        self.sessions_abandoned = 0
        self.pool.backend.on_lane_reset = self._on_lane_reset
        self.admission = AdmissionController(max_pending, registry=registry)
        self.cache = AnswerCache(cache_capacity, registry=registry)
        self.stats_agg = ServiceStats(registry)
        self._req_counter = 0
        self._tcp_server: Optional[asyncio.base_events.Server] = None
        #: open TCP connections: handler task -> its writer
        self._connections: dict[asyncio.Task, asyncio.StreamWriter] = {}
        self.data_dir = Path(data_dir) if data_dir is not None else None
        self.checkpoint_interval = (
            float(checkpoint_interval) if checkpoint_interval else None
        )
        self.lifecycle = ServiceLifecycle(self, drain_timeout=drain_timeout)
        self._durable: dict[str, DurableStore] = {}
        #: single-threaded on purpose: WAL appends must hit the journal in
        #: the order their merges hit the store (the loop thread computes
        #: deltas in merge order; a FIFO one-worker executor preserves it)
        self._wal_io: Optional[ThreadPoolExecutor] = None
        self._checkpoint_task: Optional[asyncio.Task] = None

    # -- registry ----------------------------------------------------------
    def add_program(self, name: str, program: Union[Program, str]) -> ProgramEntry:
        if isinstance(program, str):
            program = Program.from_source(program)
        entry = ProgramEntry(
            name=name,
            program=program,
            global_store=WeightStore(n=self.config.n, a=self.config.a),
            config=self.config,
            machine_config=self.machine_config,
        )
        self.programs[name] = entry
        return entry

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> None:
        already = self.pool.started
        await self.pool.start()
        if self.data_dir is not None and not self._durable:
            self.lifecycle.transition(LifecycleState.RECOVERING)
            self._wal_io = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="blog-wal"
            )
            self._recover()
        self.lifecycle.transition(LifecycleState.SERVING)
        if (
            not already
            and self._durable
            and self.checkpoint_interval is not None
            and self._checkpoint_task is None
        ):
            self._checkpoint_task = asyncio.create_task(
                self._checkpoint_loop(), name="blog-checkpoint"
            )

    async def close_ingress(self) -> None:
        """Stop accepting new TCP connections (drain step 1; established
        connections keep reading replies for work already admitted)."""
        if self._tcp_server is not None:
            self._tcp_server.close()
            await self._tcp_server.wait_closed()
            self._tcp_server = None

    async def stop(self, close_connections: bool = True) -> None:
        """Stop serving.  Open TCP connections are closed and their
        handlers awaited, unless ``close_connections`` is false (the
        drain keeps them, so clients read ``stopped`` replies until they
        hang up)."""
        if self._checkpoint_task is not None:
            self._checkpoint_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._checkpoint_task
            self._checkpoint_task = None
        await self.close_ingress()
        await self.pool.stop()
        if close_connections:
            await self._close_connections()
        if self._durable:
            await self.checkpoint()  # the final checkpoint: nothing is lost
            for ds in self._durable.values():
                ds.close()
            self._durable = {}
        if self._wal_io is not None:
            self._wal_io.shutdown(wait=True)
            self._wal_io = None
        self.telemetry.close()
        self.lifecycle.transition(LifecycleState.STOPPED)

    async def _close_connections(self) -> None:
        """Hang up on every client still connected and wait for the
        handlers to see the end of their stream and finish."""
        if not self._connections:
            return
        for writer in self._connections.values():
            writer.close()
        await asyncio.wait(list(self._connections))

    # -- durability (recovery, journaling, checkpoints) ---------------------
    def _recover(self) -> None:
        """Rebuild every program's global store from its data dir.

        Synchronous on the event-loop thread, by design: recovery runs
        before the first request is admitted (``ready`` is false in
        RECOVERING), and the stores must not be observable half-replayed.
        Emits one ``recovery`` root trace with a per-program child span.
        """
        assert self.data_dir is not None
        trace = self.telemetry.tracer.start_trace(
            self._next_id(), name="recovery", data_dir=str(self.data_dir)
        )
        try:
            replayed_total = 0
            for name in sorted(self.programs):
                entry = self.programs[name]
                with trace.span("recover-program", program=name) as span:
                    ds = DurableStore(
                        self.data_dir / name, n=self.config.n, a=self.config.a
                    )
                    store, info = ds.recover()
                    entry.global_store = store
                    self._durable[name] = ds
                    span.set("snapshot_loaded", info.snapshot_loaded)
                    span.set("records_replayed", info.records_replayed)
                    span.set("records_skipped", info.records_skipped)
                    span.set("torn_tail", info.torn_tail)
                    span.set("generation", store.generation)
                    replayed_total += info.records_replayed
            if replayed_total:
                self.telemetry.registry.counter(
                    "blog_recovery_records_replayed_total"
                ).inc(replayed_total)
        finally:
            trace.end()

    async def _journal_merge(
        self, entry: ProgramEntry, session: str, pre_generation: int, trace: Trace
    ) -> None:
        """WAL-append what a just-completed merge changed, fsynced before
        the caller acknowledges the merge.  The delta is computed *here*,
        on the loop thread with no await since the merge applied (so it
        is exactly the store change being acknowledged); only the disk
        write runs on the WAL executor.  A no-op merge (generation
        unchanged) journals nothing.
        """
        ds = self._durable.get(entry.name)
        if ds is None:
            return
        store = entry.global_store
        if store.generation == pre_generation:
            return
        delta = store_delta(store, since=pre_generation)
        generation = store.generation
        loop = asyncio.get_running_loop()
        with trace.span("wal-append", program=entry.name) as span:
            await loop.run_in_executor(
                self._wal_io, ds.log_merge, session, generation, delta
            )
            span.set("seq", ds.wal.seq)
        registry = self.telemetry.registry
        registry.counter("blog_wal_appends_total").inc()
        registry.histogram("blog_wal_fsync_seconds").observe(ds.wal.last_fsync_s)

    async def checkpoint(self) -> None:
        """Snapshot every durable store and compact its journal.

        The payload is prepared on the loop thread (consistent store +
        seq view); only the atomic file write runs on the WAL executor,
        serialized behind any in-flight appends.
        """
        if not self._durable:
            return
        loop = asyncio.get_running_loop()
        t0 = time.monotonic()
        try:
            for name, ds in sorted(self._durable.items()):
                entry = self.programs[name]
                payload = ds.prepare_checkpoint(entry.global_store)
                await loop.run_in_executor(self._wal_io, ds.write_checkpoint, payload)
        finally:
            self.telemetry.registry.histogram("blog_checkpoint_seconds").observe(
                time.monotonic() - t0
            )

    async def _checkpoint_loop(self) -> None:
        while True:
            await asyncio.sleep(self.checkpoint_interval)
            try:
                await self.checkpoint()
            except Exception:  # noqa: BLE001 — a failed snapshot must not kill serving
                self.telemetry.registry.counter("blog_checkpoint_errors_total").inc()

    # -- the in-process API ------------------------------------------------
    async def submit(self, request: QueryRequest) -> QueryResponse:
        """Serve one request; raises :class:`Overloaded` when at the
        admission bound (the TCP layer turns that into an error reply).

        Every request — served, failed, or rejected — owns exactly one
        root span; the phases (admission, cache, queue, lane-dispatch,
        engine, and after a lane reset respawn/replay) hang off it.
        """
        rid = request.request_id or self._next_id()
        trace = self.telemetry.tracer.start_trace(
            rid,
            name="request",
            program=request.program,
            session=request.session,
            engine=request.engine,
        )
        try:
            if not self.lifecycle.accepting:
                trace.end(ok=False, outcome="not-serving")
                self.stats_agg.record_rejection(trace.root.duration_s)
                raise NotServing(
                    f"service is {self.lifecycle.state.value}, not accepting queries"
                )
            try:
                with trace.span("admission"):
                    self.admission.acquire()
            except Overloaded:
                trace.end(ok=False, outcome="rejected")
                self.stats_agg.record_rejection(trace.root.duration_s)
                raise
            try:
                return await self._admitted(request, rid, trace)
            finally:
                self.admission.release()
        finally:
            if not trace.ended:  # crash safety: a root span never leaks open
                trace.end(ok=False, outcome="internal-error")

    async def _admitted(
        self, request: QueryRequest, rid: str, trace: Trace
    ) -> QueryResponse:
        entry = self.programs.get(request.program)
        if entry is None:
            return self._finish(
                request, rid, error=f"unknown program {request.program!r}",
                trace=trace,
            )
        if request.engine not in ENGINES:
            return self._finish(
                request, rid, error=f"unknown engine {request.engine!r}", trace=trace
            )
        try:
            goals = parse_query(request.query)
        except ParseError as exc:
            return self._finish(
                request, rid, error=f"syntax error: {exc}", trace=trace
            )

        # Cache lookup under the program's current weight generation: a
        # session merge bumps the generation and silently invalidates
        # every answer computed under the old weights.  Entries hold
        # answers keyed by canonical variable slots, re-keyed here to
        # whatever names this asker used (gf(sam, G) can serve
        # gf(sam, Who)).
        generation = entry.global_store.generation
        canonical = canonical_query(goals)
        key = canonical_cache_key(entry.name, canonical, request.max_solutions)
        slots = slot_names(canonical[1])
        if request.cache:
            with trace.span("cache") as cache_span:
                canon = self.cache.get(key, generation)
                cache_span.set("hit", canon is not None)
            if canon is not None:
                by_slot = {slot: name for name, slot in slots.items()}
                answers = [
                    {by_slot[s]: v for s, v in a.items() if s in by_slot}
                    for a in canon
                ]
                return self._finish(
                    request, rid, answers=answers, cache_hit=True,
                    engine_used="cache", trace=trace,
                )

        engine_used = request.engine
        degraded = False
        if engine_used == "machine" and self.admission.pending > self.degrade_pending:
            engine_used = "blog"
            degraded = True

        timeout = request.timeout if request.timeout is not None else self.default_timeout
        lane = self.router.lane_for(request.session)

        query = {
            "op": "query",
            "name": entry.name,
            "session": request.session,
            "engine": engine_used,
            "goals": goals,
            "max_solutions": request.max_solutions,
        }

        # Everything — opening the session included — happens inside the
        # job, so a replay after a lane reset re-opens against the fresh
        # worker.
        async def run(job: Job):
            trace.span_at(
                "queue", job.enqueued_at, job.started_at or job.enqueued_at, lane=lane
            )
            with trace.span("lane-dispatch", lane=lane, backend=self.backend):
                while True:
                    replay = job.retries > 0
                    replay_cm = trace.span("replay", lane=lane) if replay else None
                    try:
                        with replay_cm or contextlib.nullcontext():
                            await self._prepare(lane, entry, request.session, trace)
                            with trace.span(
                                "engine", engine=engine_used, backend=self.backend
                            ) as engine_span:
                                reply = await self.pool.lane_call(lane, query, timeout)
                                for k, v in reply["engine_attrs"].items():
                                    engine_span.set(k, v)
                            return reply["answers"], reply["expansions"], reply["complete"]
                    except (WorkerDied, QueryTimeout) as exc:
                        self._record_respawn(trace, lane)
                        if isinstance(exc, QueryTimeout) or replay:
                            raise
                        job.retries += 1

        job = self.pool.submit(lane, run)
        try:
            answers, expansions, complete = await job.future
        except QueryTimeout as exc:
            # the lane was reset: this session's learning is abandoned
            return self._finish(
                request, rid, error=str(exc), engine_used=engine_used,
                degraded=degraded, job=job, trace=trace,
            )
        except WorkerDied as exc:
            return self._finish(
                request, rid, error=f"worker died twice: {exc}",
                engine_used=engine_used, degraded=degraded, job=job, trace=trace,
            )
        except Exception as exc:  # engine errors must not kill the service
            return self._finish(
                request, rid, error=f"{type(exc).__name__}: {exc}",
                engine_used=engine_used, degraded=degraded, job=job, trace=trace,
            )
        if not complete:
            self.telemetry.registry.counter("blog_incomplete_total").inc()
        elif request.cache:
            with trace.span("cache", fill=True):
                self.cache.put(
                    key,
                    generation,
                    [
                        {slots[k]: v for k, v in a.items() if k in slots}
                        for a in answers
                    ],
                )
        return self._finish(
            request, rid, answers=answers, engine_used=engine_used,
            degraded=degraded, job=job, expansions=expansions, complete=complete,
            trace=trace,
        )

    # -- lane plumbing (event-loop only) -----------------------------------
    def _on_lane_reset(self, lane: int) -> None:
        """A lane's worker was replaced (death or missed deadline): the
        sessions it held are gone, so the sessions routed there are
        abandoned — dropped without merging (their learning died with
        the worker)."""
        self.lane_resets += 1
        self.telemetry.registry.counter("blog_lane_resets_total").inc()
        self.sessions_abandoned += self.router.drop_lane(lane)

    def _record_respawn(self, trace: Trace, lane: int) -> None:
        """Attach a ``respawn`` span for the lane reset the backend just
        performed (its interval was stamped inside the reset)."""
        reset = self.pool.lane(lane).last_reset
        if reset is not None:
            trace.span_at("respawn", *reset, lane=lane)

    async def _prepare(
        self, lane: int, entry: ProgramEntry, session: str, trace: Trace
    ) -> None:
        """Bring a lane's worker up to date for one session's query:
        install the program (once per worker epoch), ship the
        global-store delta its mirror is missing, and open the session
        there.  All three are idempotent per worker and skipped when
        already done — the steady-state cost is the delta check, an
        integer compare.

        Runs inside the session's lane job, so it cannot interleave with
        other work on the same lane.
        """
        with trace.span("prepare", lane=lane) as span:
            view = self.pool.lane(lane)
            if entry.name not in view.loaded:
                await self.pool.lane_call(
                    lane,
                    {
                        "op": "load_program",
                        "name": entry.name,
                        "program": entry.program,
                        "config": entry.config,
                        "machine_config": entry.machine_config,
                    },
                    self.default_timeout,
                )
                view.loaded.add(entry.name)
                view.synced_gen.pop(entry.name, None)
                span.set("loaded_program", True)
            delta = self.router.store_sync(
                entry.global_store, view.synced_gen.get(entry.name)
            )
            if delta is not None:
                await self.pool.lane_call(
                    lane,
                    {"op": "sync_store", "name": entry.name, "delta": delta},
                    self.default_timeout,
                )
                # the generation the delta was cut at: a merge on another
                # lane during the await is still missing from this mirror
                view.synced_gen[entry.name] = delta["generation"]
                span.set("synced_store", True)
            self.router.open(entry.name, session).queries += 1
            if (entry.name, session) not in view.open_sessions:
                await self.pool.lane_call(
                    lane,
                    {"op": "open_session", "name": entry.name, "session": session},
                    self.default_timeout,
                )
                view.open_sessions.add((entry.name, session))
                span.set("opened_session", True)

    async def end_session(
        self, program: str, session: str, conservative: bool = True
    ) -> Optional[MergeReport]:
        """Merge a session into the program's global store (bumping its
        generation) and drop the session state.

        The merge runs as a job on the session's own lane, so it
        serializes behind any in-flight query of that session.  The lane
        worker ships back the session's touched-keys delta and the merge
        applies it here, on the event loop (global stores are
        loop-thread-only); if the worker was lost, the session is
        abandoned (None), never merged.
        """
        if self.router.get(program, session) is None:
            return None
        entry = self.programs.get(program)
        if entry is None:
            return None
        lane = self.router.lane_for(session)

        async def merge() -> Optional[MergeReport]:
            view = self.pool.lane(lane)
            delta = None
            # not open in the worker: the lane was reset since — abandoned
            if (program, session) in view.open_sessions:
                try:
                    reply = await self.pool.lane_call(
                        lane,
                        {"op": "close_session", "name": program, "session": session},
                        self.default_timeout,
                    )
                except WorkerDied:
                    # the worker died holding the local store: the lane
                    # reset already dropped the router state — abandoned
                    return None
                view.open_sessions.discard((program, session))
                delta = reply["delta"]
            return self.router.close(
                program,
                session,
                delta,
                entry.global_store,
                alpha=entry.config.alpha,
                conservative=conservative,
            )

        async def run(job: Job) -> Optional[MergeReport]:
            trace.span_at(
                "queue", job.enqueued_at, job.started_at or job.enqueued_at, lane=lane
            )
            with trace.span("merge", lane=lane, backend=self.backend) as span:
                pre_generation = entry.global_store.generation
                report = await merge()
                span.set("merged", report is not None)
                if report is not None:
                    report.generation = entry.global_store.generation
                    # durable before acknowledged: the journal append
                    # (fsync included) completes before this job — and
                    # therefore the client's end_session reply — resolves
                    await self._journal_merge(entry, session, pre_generation, trace)
                return report

        trace = self.telemetry.tracer.start_trace(
            self._next_id(), name="end_session", program=program, session=session
        )
        try:
            # submit() itself can raise (pool shutting down): keep it under
            # the same try/finally as the await, or the trace leaks open
            job = self.pool.submit(lane, run)
            return await job.future
        finally:
            trace.end()

    def stats(self) -> dict:
        """Operator-facing counters: latency, throughput, cache, admission,
        and per-lane backend health (respawns, IPC bytes)."""
        return {
            **self.stats_agg.summary(),
            "cache": self.cache.stats(),
            "pending": self.admission.pending,
            "peak_pending": self.admission.peak_pending,
            "admitted": self.admission.admitted,
            "sessions_open": len(self.router),
            "sessions_merged": self.router.sessions_merged,
            "sessions_abandoned": self.sessions_abandoned,
            "backend": self.backend,
            "lane_resets": self.lane_resets,
            "lanes": self.pool.lane_stats(),
            "programs": sorted(self.programs),
            "slow_queries": self.telemetry.slow_queries,
            "traces": {
                "started": self.telemetry.tracer.started,
                "finished": self.telemetry.tracer.completed,
            },
            "lifecycle": self.lifecycle.state.value,
            "durability": {
                name: ds.status() for name, ds in sorted(self._durable.items())
            },
        }

    def metrics_text(self) -> str:
        """The registry's text exposition (the ``metrics`` TCP verb)."""
        return self.telemetry.registry.expose()

    # -- plumbing ----------------------------------------------------------
    def _next_id(self) -> str:
        self._req_counter += 1
        return f"q{self._req_counter}"

    def _finish(
        self,
        request: QueryRequest,
        rid: str,
        trace: Trace,
        answers: Optional[list[dict[str, str]]] = None,
        error: Optional[str] = None,
        cache_hit: bool = False,
        engine_used: Optional[str] = None,
        degraded: bool = False,
        job: Optional[Job] = None,
        expansions: Optional[int] = None,
        complete: bool = True,
    ) -> QueryResponse:
        """Build the response, finish its root span, and record the
        outcome in the registry.

        Durations are populated on *every* exit path: the wall time is
        measured root-span-start → now, so cache hits and early errors
        report real latency instead of zero; without a job (no lane work
        happened) the whole wall time counts as queue wait.  Engine time
        is the sum of the request's ``engine`` spans.
        """
        ok = error is None
        engine_used = engine_used or request.engine
        retries = job.retries if job is not None else 0
        total_s = max(0.0, time.monotonic() - trace.root.start_s)
        engine_s = sum(s.duration_s for s in trace.find("engine") if s.end_s is not None)
        queue_wait = job.queue_wait_s if job is not None else max(0.0, total_s - engine_s)
        trace.end(
            ok=ok,
            answers=len(answers or ()),
            cache_hit=cache_hit,
            engine_used=engine_used,
            degraded=degraded,
            retries=retries,
            **({"request_error": error} if error is not None else {}),
        )
        self.stats_agg.record(
            ok=ok,
            engine_used=engine_used,
            cache_hit=cache_hit,
            degraded=degraded,
            retries=retries,
            total_s=total_s,
            queue_wait_s=queue_wait,
            engine_s=engine_s,
        )
        return QueryResponse(
            request_id=rid,
            ok=ok,
            answers=list(answers or ()),
            error=error,
            cached=cache_hit,
            engine=engine_used,
            degraded=degraded,
            retries=retries,
            expansions=expansions,
            complete=complete,
            queue_wait_ms=queue_wait * 1000.0,
            engine_ms=engine_s * 1000.0,
        )

    # -- the TCP front-end -------------------------------------------------
    async def serve_tcp(self, host: str = "127.0.0.1", port: int = 8750):
        """Start the line-JSON TCP endpoint; returns the asyncio server.

        Protocol: one JSON object per line.  ``{"op": "query", ...}``
        (or any object with a ``"query"`` key) runs a query;
        ``{"op": "end_session", "program": P, "session": S}`` merges a
        session (the reply's ``merged.generation`` is the store
        generation the merge produced — the durability layer's ack key);
        ``{"op": "stats"}`` reports counters; ``{"op": "metrics"}``
        returns the metrics text exposition; ``{"op": "health"}`` and
        ``{"op": "ready"}`` expose the lifecycle state (ready is false
        while recovering or draining).  Responses are one JSON object
        per line, always with an ``"ok"`` field.
        """
        await self.start()
        self._tcp_server = await asyncio.start_server(
            self._accept, host, port, limit=LINE_LIMIT
        )
        return self._tcp_server

    def _accept(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve a new connection in a task the service owns.  (Handed a
        coroutine, asyncio 3.11 wraps it in a task whose done callback
        reports a *cancelled* handler as an unhandled error.)"""
        task = asyncio.get_running_loop().create_task(
            self._handle_client(reader, writer)
        )
        self._connections[task] = writer
        task.add_done_callback(self._connections.pop)

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                line = await _read_request_line(reader)
                if line == b"":
                    break
                if line is None:
                    self.telemetry.registry.counter("blog_oversized_lines_total").inc()
                    reply = {"ok": False, "error": f"request line over {LINE_LIMIT} bytes"}
                else:
                    reply = await self._dispatch_line(line)
                writer.write((json.dumps(reply) + "\n").encode("utf-8"))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            # a client vanishing mid-reply is normal churn, but it must
            # stay visible on the dashboards (blogcheck BLG005)
            self.telemetry.registry.counter("blog_client_disconnects_total").inc()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            # already counted above; wait_closed only confirms the close
            except (ConnectionResetError, BrokenPipeError):  # blogcheck: ignore[BLG005]
                pass

    async def _dispatch_line(self, line: bytes) -> dict:
        try:
            msg = json.loads(line)
        except json.JSONDecodeError as exc:
            return {"ok": False, "error": f"bad json: {exc}"}
        if not isinstance(msg, dict):
            return {"ok": False, "error": "request must be a json object"}
        op = msg.get("op", "query" if "query" in msg else None)
        if op == "query":
            try:
                request = QueryRequest.from_dict(msg)
            except KeyError:
                return {"ok": False, "error": "missing 'query' field"}
            try:
                return (await self.submit(request)).to_dict()
            except Overloaded as exc:
                return {
                    "id": msg.get("id"),
                    "ok": False,
                    "overloaded": True,
                    "error": str(exc),
                }
            except NotServing as exc:
                return {
                    "id": msg.get("id"),
                    "ok": False,
                    "draining": True,
                    "error": str(exc),
                }
        if op == "end_session":
            report = await self.end_session(
                msg.get("program", "default"),
                str(msg.get("session", "default")),
                conservative=bool(msg.get("conservative", True)),
            )
            return {
                "ok": True,
                "merged": asdict(report) if report is not None else None,
            }
        if op == "stats":
            return {"ok": True, "stats": self.stats()}
        if op == "metrics":
            return {"ok": True, "metrics": self.metrics_text()}
        if op == "health":
            # truthful in every state: the process is alive and answering
            return {"ok": True, **self.lifecycle.describe()}
        if op == "ready":
            # the load-balancer probe: flips false in RECOVERING/DRAINING
            return {
                "ok": self.lifecycle.ready,
                "ready": self.lifecycle.ready,
                "state": self.lifecycle.state.value,
            }
        return {"ok": False, "error": f"unknown op {op!r}"}


async def _read_request_line(reader: asyncio.StreamReader) -> Optional[bytes]:
    """The next request line (``b""`` at end of stream), or None for a
    line over the reader's limit: that line is read to its end and
    dropped, so the connection can go on with the next one."""
    oversized = False
    while True:
        try:
            line = await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError as exc:
            line = exc.partial  # end of stream: the last, unterminated line
        except asyncio.LimitOverrunError as exc:
            await reader.readexactly(exc.consumed)  # already buffered
            oversized = True
            continue
        return None if oversized else line
