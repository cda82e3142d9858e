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
  stores: at session close it plans the merge of the touched-keys
  delta the lane returns, journals it, and only then applies it (one
  commit at a time); a lane's next query carries the committed entries
  its mirror lacks.
* Each lane's **worker** (:class:`~repro.core.procpool.LaneWorker`)
  holds the lane's store mirrors and its sessions' engines and local
  stores, and executes their queries — on a worker thread
  (``backend="thread"``) or in a warm lane subprocess
  (``backend="process"``); the same protocol either way.  The router's
  lane affinity guarantees at most one in-flight request per lane.  A
  lane whose worker dies or misses a deadline is reset (fresh worker),
  and the in-flight query is replayed exactly once after a death, its
  message rebuilt for the fresh worker; every other session that lived
  in the lost worker is abandoned, never merged.
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
import math
import reprlib
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional, Union

from ..core.config import BLogConfig
from ..core.procpool import CloseSession, LoadProgram, Query
from ..logic.parser import ParseError, parse_query
from ..logic.program import Program
from ..logic.terms import Term
from ..machine.blog_machine import MachineConfig
from ..weights.session import MergeReport, plan_merge
from ..weights.store import StoreDelta, WeightStore
from ..weights.wal import DurableStore
from .admission import AdmissionController, Overloaded
from .cache import AnswerCache, CanonicalForm
from .lifecycle import LifecycleState, NotServing, ServiceLifecycle
from .router import SessionRouter
from .stats import ServiceStats, bound_series
from .telemetry import Telemetry, Trace
from .workers import Job, QueryTimeout, WorkerDied, WorkerPool

__all__ = ["QueryRequest", "QueryResponse", "ProgramEntry", "BLogService"]

ENGINES = ("blog", "machine")
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
        """The request a wire object asks for: KeyError without a
        ``query``, ValueError naming the first field of a wrong type."""
        return cls(
            program=_text(d, "program", "default"),
            query=_text(d, "query"),
            session=_text(d, "session", "default"),
            engine=_text(d, "engine", "blog"),
            max_solutions=_positive(d, "max_solutions", (int,), "integer"),
            timeout=_positive(d, "timeout", (int, float), "number"),
            cache=_flag(d, "cache", True),
            request_id=d.get("id"),
        )


def _text(d: dict, name: str, default: Optional[str] = None) -> str:
    """String field ``name`` of a wire object; required without a default."""
    value = d[name] if default is None else d.get(name, default)
    if not isinstance(value, str):
        raise ValueError(f"{name!r} must be a string, not {reprlib.repr(value)}")
    return value


def _flag(d: dict, name: str, default: bool) -> bool:
    """Optional boolean field ``name`` of a wire object: JSON true or false."""
    value = d.get(name, default)
    if not isinstance(value, bool):
        raise ValueError(f"{name!r} must be true or false, not {reprlib.repr(value)}")
    return value


def _positive(d: dict, name: str, types: tuple, kind: str):
    """Optional positive, finite number field ``name`` of a wire object."""
    value = d.get(name)
    if value is not None and (
        isinstance(value, bool) or not isinstance(value, types) or not 0 < value < math.inf
    ):
        raise ValueError(
            f"{name!r} must be a positive {kind} or null, not {reprlib.repr(value)}"
        )
    return value


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
    cache_capacity:
        Answer-cache lines kept (least recently used dropped first).  As
        many cacheable query texts keep their canonical form, so a
        repeated text is not parsed again (oldest text dropped first).
    checkpoint_interval:
        Seconds between periodic snapshots compacting the journal
        (only meaningful with ``data_dir``); None disables the periodic
        task — checkpoints then happen only at stop/drain.
    drain_timeout:
        Deadline (seconds) for in-flight work during a graceful drain;
        queued work past it is cancelled, never run late.
    """

    _incomplete = bound_series("counter", "blog_incomplete_total")
    _wal_appends = bound_series("counter", "blog_wal_appends_total")
    _wal_fsync_s = bound_series("histogram", "blog_wal_fsync_seconds")

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
        self.backend = backend
        self.telemetry = Telemetry(
            slow_query_s=(slow_query_ms / 1000.0) if slow_query_ms else None,
        )
        if trace_log:
            self.telemetry.attach_trace_log(
                trace_log, max_bytes=trace_log_max_bytes
            )
        registry = self._registry = self.telemetry.registry
        self.router = SessionRouter(self.n_workers, registry=registry)
        self.pool = WorkerPool(self.n_workers, backend=backend, mp_context=mp_context)
        self._m_lane_resets = registry.counter("blog_lane_resets_total")
        self.admission = AdmissionController(max_pending, registry=registry)
        self.cache = AnswerCache(cache_capacity, registry=registry)
        #: query text -> its canonical form, for the last ``cache_capacity``
        #: cacheable texts that parsed: a cache hit on a text seen before
        #: runs neither the parser nor the canonicalization
        self._canonical_forms: OrderedDict[str, CanonicalForm] = OrderedDict()
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
        #: one thread on purpose: it runs every WAL append and checkpoint
        #: write, across programs, one at a time in submission order
        self._wal_io: Optional[ThreadPoolExecutor] = None
        #: held from a merge's plan to its apply, across the WAL append
        #: (and by a checkpoint's snapshot): a second merge plans against
        #: the first one's apply, and a snapshot never sees a journaled
        #: merge that is not yet applied
        self._commit_lock = asyncio.Lock()
        #: (program, session) -> the buffer of a closed session whose
        #: commit raised, held until a retried ``end_session`` commits it
        self._unmerged: dict[tuple[str, str], StoreDelta] = {}
        self._checkpoint_task: Optional[asyncio.Task] = None

    @property
    def lane_resets(self) -> int:
        return int(self._m_lane_resets.value)

    @property
    def sessions_abandoned(self) -> int:
        return self.router.sessions_abandoned

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
        # set while lanes run, and cleared by stop, so a stopped service
        # is not kept alive by its own pool
        self.pool.backend.on_lane_reset = self._on_lane_reset
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
        self.pool.backend.on_lane_reset = None
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
        with self.telemetry.tracer.trace(
            self._next_id(), name="recovery", data_dir=str(self.data_dir)
        ) as trace:
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

    async def _commit(
        self,
        entry: ProgramEntry,
        session: str,
        buffer: StoreDelta,
        conservative: bool,
        trace: Trace,
    ) -> MergeReport:
        """Merge a closed session's buffer into the program's global
        store, journal first.

        The merge is planned against the store as it stands, its delta
        is WAL-appended (fsync included) on a durable service, and only
        then applied and acknowledged: an append that raises leaves the
        store, its generation and the answer cache as they were.  A
        merge that writes nothing journals nothing.  The applied entries
        are added to what each lane's mirror of the program lacks.
        """
        async with self._commit_lock:
            delta, report = plan_merge(
                entry.global_store,
                buffer.entries,
                alpha=entry.config.alpha,
                conservative=conservative,
            )
            ds = self._durable.get(entry.name)
            if ds is not None and delta.generation != delta.base:
                loop = asyncio.get_running_loop()
                with trace.span("wal-append", program=entry.name) as span:
                    await loop.run_in_executor(
                        self._wal_io, ds.log_merge, session, delta.generation, delta
                    )
                    span.set("seq", ds.wal.seq)
                self._wal_appends.inc()
                self._wal_fsync_s.observe(ds.wal.last_fsync_s)
            self.router.commit(entry.global_store, delta)
            for lane in range(self.pool.n_lanes):
                missing = self.pool.lane(lane).missing.get(entry.name)
                if missing is not None:
                    missing.update(delta.entries)
        return report

    async def checkpoint(self) -> None:
        """Snapshot every durable store and compact its journal.

        Each store is captured on the loop thread, between commits
        (consistent store + seq view); the encoding and the atomic file
        write run on the WAL executor, serialized behind any in-flight
        appends.  One program's capture is let go before the next is
        taken.
        """
        if not self._durable:
            return
        loop = asyncio.get_running_loop()
        with self.telemetry.registry.histogram("blog_checkpoint_seconds").time():
            for name, ds in sorted(self._durable.items()):
                async with self._commit_lock:
                    snapshot = ds.capture(self.programs[name].global_store)
                await loop.run_in_executor(self._wal_io, ds.write_checkpoint, snapshot)
                del snapshot

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
        # a client's id is echoed exactly, falsy ones (0, "") included
        rid = self._next_id() if request.request_id is None else request.request_id
        with self.telemetry.tracer.trace(
            rid,
            name="request",
            program=request.program,
            session=request.session,
            engine=request.engine,
        ) as trace:
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
        # Cache lookup under the program's current weight generation: a
        # session merge bumps the generation and silently invalidates
        # every answer computed under the old weights.  Entries hold
        # answers keyed by canonical variable slots, re-keyed here to
        # whatever names this asker used (gf(sam, G) can serve
        # gf(sam, Who)).  A cacheable text seen before skips the parser:
        # its goals are parsed only if a lane is to run them.
        generation = entry.global_store.generation
        form = self._canonical_forms.get(request.query) if request.cache else None
        goals: Optional[tuple[Term, ...]] = None
        if form is None:
            try:
                goals = parse_query(request.query)
            # nesting past the parser's MAX_DEPTH is a ParseError too
            except ParseError as exc:
                return self._finish(
                    request, rid, error=f"syntax error: {exc}", trace=trace
                )
            if request.cache:
                form = self._remember(request.query, goals)
        if form is not None:
            key = form.key(entry.name, request.max_solutions)
            with trace.span("cache") as cache_span:
                canon = self.cache.get(key, generation)
                cache_span.set("hit", canon is not None)
            if canon is not None:
                by_slot = form.names
                answers = [
                    {by_slot[s]: v for s, v in a.items() if s in by_slot}
                    for a in canon
                ]
                return self._finish(
                    request, rid, answers=answers, cache_hit=True,
                    engine_used="cache", trace=trace,
                )
        if goals is None:  # a memoized text parsed before, so it parses
            goals = parse_query(request.query)

        engine_used = request.engine
        degraded = False
        if engine_used == "machine" and self.admission.pending > self.degrade_pending:
            engine_used = "blog"
            degraded = True

        timeout = request.timeout if request.timeout is not None else self.default_timeout
        lane = self.router.lane_for(request.session)

        # The query message is built inside the job, so a replay after a
        # lane reset carries the program and the whole store to the fresh
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
                            query = self._prepare(
                                lane, entry, request, engine_used, goals, trace
                            )
                            with trace.span(
                                "engine", engine=engine_used, backend=self.backend
                            ) as engine_span:
                                try:
                                    reply = await self.pool.lane_call(lane, query, timeout)
                                except BaseException:
                                    if query.load is not None or query.sync is not None:
                                        # the mirror is in an unknown state:
                                        # the next query installs it afresh
                                        self.pool.lane(lane).missing.pop(entry.name, None)
                                    raise
                                for k, v in reply.engine_attrs.items():
                                    engine_span.set(k, v)
                            return reply.answers, reply.expansions, reply.complete
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
            self._incomplete.inc()
        elif form is not None:
            with trace.span("cache", fill=True):
                slots = {name: slot for slot, name in form.names.items()}
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

    def _remember(self, text: str, goals: tuple[Term, ...]) -> CanonicalForm:
        """The canonical form of a query text that parsed into ``goals``,
        kept for the next request with the same text; past
        ``cache_capacity`` texts the oldest is forgotten."""
        form = self._canonical_forms[text] = CanonicalForm.of(goals)
        if len(self._canonical_forms) > self.cache.capacity:
            self._canonical_forms.popitem(last=False)
        return form

    # -- lane plumbing (event-loop only) -----------------------------------
    def _on_lane_reset(self, lane: int) -> None:
        """A lane's worker was replaced (death or missed deadline): the
        sessions it held are gone, so the sessions routed there are
        abandoned — dropped without merging (their learning died with
        the worker).  So are the closed sessions routed there whose
        commit is waiting for a retry."""
        self._m_lane_resets.inc()
        held = [k for k in self._unmerged if self.router.lane_for(k[1]) == lane]
        for k in held:
            del self._unmerged[k]
        self.router.drop_lane(lane, unmerged=len(held))

    def _record_respawn(self, trace: Trace, lane: int) -> None:
        """Attach a ``respawn`` span for the lane reset the backend just
        performed (its interval was stamped inside the reset)."""
        reset = self.pool.lane(lane).last_reset
        if reset is not None:
            trace.span_at("respawn", *reset, lane=lane)

    def _prepare(
        self,
        lane: int,
        entry: ProgramEntry,
        request: QueryRequest,
        engine: str,
        goals: tuple[Term, ...],
        trace: Trace,
    ) -> Query:
        """The lane message for one session's query: it installs the
        program when the lane's worker lacks it (shipping the whole
        store) and otherwise ships the committed entries the mirror
        lacks; the worker opens the session on first use.

        The lacking entries are taken here, before the lane call's
        await: a merge committed during it stays missing for the next
        query.
        """
        with trace.span("prepare", lane=lane) as span:
            view = self.pool.lane(lane)
            missing = view.missing.get(entry.name)
            load = None
            if missing is None:
                load = LoadProgram(
                    entry.name, entry.program, entry.config, entry.machine_config
                )
                span.set("loaded_program", True)
                missing = entry.global_store.snapshot()  # a new mirror lacks it all
            view.missing[entry.name] = {}
            sync = None
            if missing:
                sync = StoreDelta(None, entry.global_store.generation, missing)
                span.set("synced_store", True)
            self.router.open(entry.name, request.session).queries += 1
            return Query(
                entry.name, request.session, engine, goals, request.max_solutions,
                load, sync,
            )

    async def end_session(
        self, program: str, session: str, conservative: bool = True
    ) -> Optional[MergeReport]:
        """Merge a session into the program's global store (bumping its
        generation) and drop the session state.

        The lane close runs as a job on the session's own lane, so it
        serializes behind any in-flight query of that session.  The lane
        worker ships back the session's touched-keys delta, and
        :meth:`_commit` merges it here, on the event loop (global stores
        are loop-thread-only); if the worker was lost, the session is
        abandoned (None), never merged.  A commit that raises keeps the
        closed session's buffer, so a retried ``end_session`` commits it
        (and only it: a session the same name opened since stays open).
        """
        key = (program, session)
        if key not in self._unmerged and self.router.get(program, session) is None:
            return None
        entry = self.programs.get(program)
        if entry is None:
            return None
        lane = self.router.lane_for(session)

        async def close() -> Optional[StoreDelta]:
            """The session's buffer, or None when it is abandoned."""
            held = self._unmerged.pop(key, None)
            if held is not None:
                return held
            # not routed any more: the lane was reset since — abandoned
            if self.router.get(program, session) is None:
                return None
            try:
                buffer = await self.pool.lane_call(
                    lane, CloseSession(program, session), self.default_timeout
                )
            except WorkerDied:
                # the worker died holding the local store: the lane
                # reset already dropped the router state — abandoned
                return None
            if not self.router.close(program, session):
                return None
            return buffer

        async def run(job: Job) -> Optional[MergeReport]:
            trace.span_at(
                "queue", job.enqueued_at, job.started_at or job.enqueued_at, lane=lane
            )
            with trace.span("merge", lane=lane, backend=self.backend) as span:
                buffer = await close()
                report = None
                if buffer is not None:
                    try:
                        report = await self._commit(
                            entry, session, buffer, conservative, trace
                        )
                    except Exception:
                        self._unmerged[key] = buffer
                        raise
                span.set("merged", report is not None)
                return report

        with self.telemetry.tracer.trace(
            self._next_id(), name="end_session", program=program, session=session
        ) as trace:
            job = self.pool.submit(lane, run)
            return await job.future

    def sessions_to_merge(self) -> list[tuple[str, str]]:
        """``(program, session)`` for every live session and every closed
        one whose commit is waiting for a retry: what a drain ends."""
        return sorted({*self.router.open_session_keys(), *self._unmerged})

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
        # only lane work (a job) opens engine spans: a hit or an early
        # error has none to sum
        engine_s = (
            sum(s.duration_s for s in trace.find("engine") if s.end_s is not None)
            if job is not None
            else 0.0
        )
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
            # an engine the service does not run gets no series: a client
            # could otherwise mint one per name it sends
            engine_used=engine_used if cache_hit or engine_used in ENGINES else None,
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
        # a decode error, bytes that are no text, or nesting too deep
        except (ValueError, RecursionError) as exc:
            return {"ok": False, "error": f"bad json: {exc}"}
        if not isinstance(msg, dict):
            return {"ok": False, "error": "request must be a json object"}
        op = msg.get("op", "query" if "query" in msg else None)
        if op == "query":
            try:
                request = QueryRequest.from_dict(msg)
            except KeyError:
                return {"ok": False, "error": "missing 'query' field"}
            except ValueError as exc:
                return {"id": msg.get("id"), "ok": False, "error": str(exc)}
            try:
                return (await self.submit(request)).to_dict()
            except (Overloaded, NotServing) as exc:
                refusal = "overloaded" if isinstance(exc, Overloaded) else "draining"
                return {"id": msg.get("id"), "ok": False, refusal: True, "error": str(exc)}
        if op == "end_session":
            try:
                program = _text(msg, "program", "default")
                session = _text(msg, "session", "default")
                conservative = _flag(msg, "conservative", True)
            except ValueError as exc:
                return {"ok": False, "error": str(exc)}
            try:
                report = await self.end_session(
                    program, session, conservative=conservative
                )
            # a failed lane close or journal append: the merge is not
            # acknowledged, and the connection goes on
            except Exception as exc:
                return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
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
