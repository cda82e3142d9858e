"""The bounded worker pool: serial lanes over a pluggable execution backend.

Execution model
---------------
The pool owns ``n_lanes`` *lanes*.  A lane is a serial queue drained by
one asyncio task; the router pins every session to one lane, which is
what makes session-local weight stores safe without locks — a session's
queries can never run concurrently with each other (nor with that
session's end-of-session merge, which is enqueued on the same lane).

Every lane runs the same lane protocol — one
:class:`~repro.core.procpool.LaneWorker` holding the lane's programs,
its per-program weight-store mirrors and its sessions' engines — and
the server speaks to it through one call, ``call(lane, msg, timeout)``,
whose message is one of that module's three frozen dataclasses
(:class:`~repro.core.procpool.Query`, which also carries the program
load and store sync its lane needs, ``CloseSession`` and ``Shutdown``)
and whose reply is typed by it.
A :class:`LaneBackend` only decides how the worker is reached:

* ``thread`` — the worker lives in this process and messages are
  handed over without serialization; queries run on a shared
  :class:`~concurrent.futures.ThreadPoolExecutor` (one thread per
  lane).  Cheap, but the GIL serializes the CPU-bound engine work, so
  cache-off throughput is flat no matter how many lanes exist
  (measured as E16).
* ``process`` — each lane owns a warm, long-lived worker subprocess
  (spawned once at pool start, reused across queries), and the same
  messages travel pickled over a pipe.  Genuinely independent
  execution state, the way the paper's MIMD processors are
  independent — measured as E17.

Failure handling is one rule on both backends:

* **timeout** or **worker death** resets the lane — a process lane's
  child is killed and respawned; a thread cannot be killed, so a thread
  lane swaps in a fresh worker and a stuck thread keeps only the old
  one.  Either way the lane is immediately healthy again, at the cost
  of the sessions that lived in its worker (the reset callback lets the
  router drop them so they are never merged).
* A timeout then fails the request with :class:`QueryTimeout`; a
  :class:`WorkerDied` (a SIGKILLed lane subprocess, an injected fault)
  is replayed exactly once by the server, its message rebuilt for the
  fresh worker (program load and whole store); a second death fails
  the request.

Queue-wait per job is measured here (enqueue → start) and surfaced to
the stats layer, as are per-lane call, respawn and IPC byte counters.
"""

from __future__ import annotations

import asyncio
import multiprocessing as mp
import pickle
import time
from collections.abc import Awaitable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, TypeVar

from ..core.procpool import LaneError, LaneWorker, Op, Query, Shutdown, lane_worker_main
from ..ortree.tree import ArcKey
from ..weights.store import WeightEntry

R = TypeVar("R")

__all__ = [
    "WorkerDied",
    "QueryTimeout",
    "Job",
    "WorkerPool",
    "LaneView",
    "LaneBackend",
    "ThreadLaneBackend",
    "ProcessLaneBackend",
    "BACKENDS",
]

BACKENDS = ("thread", "process")


class WorkerDied(RuntimeError):
    """The worker executing a query died mid-flight (retryable once)."""


class QueryTimeout(RuntimeError):
    """The query missed its deadline."""


@dataclass
class Job:
    """One unit of lane work (a query execution or a session merge)."""

    run: Callable[["Job"], Awaitable[Any]]
    future: asyncio.Future
    enqueued_at: float = field(default_factory=time.monotonic)
    started_at: Optional[float] = None
    retries: int = 0

    @property
    def queue_wait_s(self) -> float:
        if self.started_at is None:
            return 0.0
        return self.started_at - self.enqueued_at


# -- backends ---------------------------------------------------------------


@dataclass
class LaneView:
    """The parent's view of one lane: what its current worker's mirrors
    lack (maintained by the server) and the lane's counters.  Both
    backends keep one per lane; a reset empties ``missing``."""

    lane: int
    respawns: int = 0
    calls: int = 0
    #: monotonic (start, end) of the most recent reset — the service
    #: turns this into a ``respawn`` span on the request whose failure
    #: triggered it
    last_reset: Optional[tuple[float, float]] = None
    #: program -> the committed entries its mirror still lacks; a
    #: program is installed on the worker iff it has an entry here
    missing: dict[str, dict[ArcKey, WeightEntry]] = field(default_factory=dict)


class LaneBackend:
    """How a lane's :class:`~repro.core.procpool.LaneWorker` is reached;
    see the module docstring.  Subclasses supply the transport
    (:meth:`_exchange`) and a fresh worker on reset (:meth:`_restart`);
    deadlines, resets and counters are shared."""

    kind: str = "?"

    def __init__(self) -> None:
        self.lanes: list[LaneView] = []
        #: called with the lane index after a reset, before the
        #: triggering exception propagates; the service drops the
        #: lane's router sessions there so a lost worker is never merged
        self.on_lane_reset: Optional[Callable[[int], None]] = None

    async def start(self, n_lanes: int) -> None:
        """Bring up one worker per lane (subclasses), with fresh views."""
        self.lanes = [LaneView(i) for i in range(n_lanes)]

    async def stop(self) -> None:
        raise NotImplementedError

    def _restart(self, lane: int) -> None:
        """Bring up a fresh worker for ``lane`` (discarding any old one)."""
        raise NotImplementedError

    def _exchange(self, lane: int, msg: Op[Any]) -> Any:
        """Send ``msg`` to the lane's worker: the reply (or
        :class:`~repro.core.procpool.LaneError`) if it is already there,
        else an awaitable of it.  Raises (or the awaitable raises)
        :class:`WorkerDied` if the worker is lost mid-request."""
        raise NotImplementedError

    def _reset(self, lane: int) -> None:
        view = self.lanes[lane]
        t0 = time.monotonic()
        self._restart(lane)
        view.missing = {}
        view.respawns += 1
        view.last_reset = (t0, time.monotonic())
        if self.on_lane_reset is not None:
            self.on_lane_reset(lane)

    async def call(self, lane: int, msg: Op[R], timeout: Optional[float]) -> R:
        """One lane-protocol request/response.

        * deadline missed → the lane is reset (a stuck worker cannot be
          un-stuck), then :class:`QueryTimeout`;
        * worker lost → the lane is reset, then :class:`WorkerDied` so
          the caller can replay exactly once;
        * a :class:`~repro.core.procpool.LaneError` reply →
          :class:`RuntimeError` with its text.
        """
        try:
            reply = self._exchange(lane, msg)
            if isinstance(reply, Awaitable):  # in flight: wait under the deadline
                reply = await asyncio.wait_for(reply, timeout)
        except asyncio.TimeoutError:
            self._reset(lane)
            raise QueryTimeout(
                f"lane {lane} request exceeded its {timeout:g}s deadline "
                f"(lane reset)"
            ) from None
        except WorkerDied:
            self._reset(lane)
            raise
        self.lanes[lane].calls += 1
        if isinstance(reply, LaneError):
            raise RuntimeError(reply.error)
        return reply

    def _transport_stats(self, lane: int) -> dict:
        return {}

    def lane_stats(self) -> list[dict]:
        """Per-lane operator counters (backend, calls, respawns, IPC)."""
        return [
            {
                "lane": view.lane,
                "backend": self.kind,
                "calls": view.calls,
                "respawns": view.respawns,
                "ipc_bytes_out": 0,
                "ipc_bytes_in": 0,
                **self._transport_stats(view.lane),
            }
            for view in self.lanes
        ]


class ThreadLaneBackend(LaneBackend):
    """One in-process :class:`LaneWorker` per lane (GIL-bound).  Messages
    are handed over as they are, never pickled.  Queries run on a shared
    executor (one thread per lane); a session close only takes an
    overlay's delta, cheaper than a thread hop, and runs inline on the
    loop — safe, because the lane is serial: no query of this worker is
    in flight while its lane job runs it."""

    kind = "thread"

    def __init__(self) -> None:
        super().__init__()
        self.executor: Optional[ThreadPoolExecutor] = None
        self.workers: list[LaneWorker] = []

    async def start(self, n_lanes: int) -> None:
        self.executor = ThreadPoolExecutor(
            max_workers=n_lanes, thread_name_prefix="blog-worker"
        )
        self.workers = [LaneWorker(i) for i in range(n_lanes)]
        await super().start(n_lanes)

    async def stop(self) -> None:
        if self.executor is not None:
            self.executor.shutdown(wait=False, cancel_futures=True)
            self.executor = None

    def _restart(self, lane: int) -> None:
        # a thread cannot be killed: a stuck one keeps the old worker,
        # and nothing reads that worker again
        self.workers[lane] = LaneWorker(lane)

    def _exchange(self, lane: int, msg: Op[Any]) -> Any:
        worker = self.workers[lane]
        if isinstance(msg, Query):
            return asyncio.get_running_loop().run_in_executor(
                self.executor, worker.handle, msg
            )
        return worker.handle(msg)


class _LaneProcess:
    """Parent-side handle of one lane subprocess: process, pipe, bytes."""

    def __init__(self, lane: int, ctx) -> None:
        self.lane = lane
        self._ctx = ctx
        self.proc = None
        self.conn = None
        self.bytes_out = 0
        self.bytes_in = 0
        # parent ends of pipes whose reader thread may still be blocked in
        # recv when the lane is reset; closed at pool stop, not mid-read
        self.retired_conns: list = []

    def spawn(self) -> None:
        if self.proc is not None and self.proc.is_alive():
            self.proc.kill()
            self.proc.join(timeout=5.0)
        if self.conn is not None:
            # a timed-out reader thread may still be blocked inside
            # recv_bytes on this connection; closing it under the reader
            # races fd reuse, so retire it and close at pool stop (the
            # dead child's end is closed, so the reader gets EOF anyway)
            self.retired_conns.append(self.conn)
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        self.proc = self._ctx.Process(
            target=lane_worker_main,
            args=(child_conn, self.lane),
            name=f"blog-lane-{self.lane}",
            daemon=True,
        )
        self.proc.start()
        child_conn.close()  # the child's copy is the only live one now
        self.conn = parent_conn

    def roundtrip(self, payload: bytes) -> bytes:
        """Blocking send+recv (runs on the pool's IO executor)."""
        conn = self.conn
        conn.send_bytes(payload)
        return conn.recv_bytes()

    def shutdown(self) -> None:
        if self.proc is None:
            return
        try:
            if self.proc.is_alive() and self.conn is not None:
                self.conn.send_bytes(pickle.dumps(Shutdown()))
                self.proc.join(timeout=1.0)
        # shutdown path: the pipe dying here means the child already
        # exited; the kill() below is the handling
        except (BrokenPipeError, OSError):  # blogcheck: ignore[BLG005]
            pass
        if self.proc.is_alive():
            self.proc.kill()
            self.proc.join(timeout=5.0)
        for conn in self.retired_conns:
            try:
                conn.close()
            except OSError:  # blogcheck: ignore[BLG005] — retired conn, already dead
                pass
        self.retired_conns = []
        if self.conn is not None:
            self.conn.close()
            self.conn = None
        self.proc = None


class ProcessLaneBackend(LaneBackend):
    """One warm, long-lived subprocess per lane running
    :func:`~repro.core.procpool.lane_worker_main`, spoken to in pickled
    messages over a pipe."""

    kind = "process"

    def __init__(self, mp_context: Optional[str] = None) -> None:
        super().__init__()
        if mp_context is None:
            mp_context = (
                "fork" if "fork" in mp.get_all_start_methods() else "spawn"
            )
        self._ctx = mp.get_context(mp_context)
        self.mp_context = mp_context
        self.children: list[_LaneProcess] = []
        self._io: Optional[ThreadPoolExecutor] = None

    async def start(self, n_lanes: int) -> None:
        self._io = ThreadPoolExecutor(
            max_workers=n_lanes, thread_name_prefix="blog-lane-io"
        )
        self.children = [_LaneProcess(i, self._ctx) for i in range(n_lanes)]
        for child in self.children:
            child.spawn()
        await super().start(n_lanes)

    async def stop(self) -> None:
        for child in self.children:
            child.shutdown()
        if self._io is not None:
            self._io.shutdown(wait=False, cancel_futures=True)
            self._io = None

    def _restart(self, lane: int) -> None:
        self.children[lane].spawn()  # kills the old child first

    async def _exchange(self, lane: int, msg: Op[Any]) -> Any:
        child = self.children[lane]
        payload = pickle.dumps(msg)
        loop = asyncio.get_running_loop()
        try:
            raw = await loop.run_in_executor(self._io, child.roundtrip, payload)
        except (EOFError, BrokenPipeError, ConnectionResetError, OSError) as exc:
            raise WorkerDied(
                f"lane {lane} subprocess died mid-request: {type(exc).__name__}"
            ) from None
        child.bytes_out += len(payload)
        child.bytes_in += len(raw)
        return pickle.loads(raw)

    def _transport_stats(self, lane: int) -> dict:
        child = self.children[lane]
        return {
            "ipc_bytes_out": child.bytes_out,
            "ipc_bytes_in": child.bytes_in,
            "pid": child.proc.pid if child.proc is not None else None,
        }


# -- the pool ---------------------------------------------------------------


class WorkerPool:
    """``n_lanes`` serial queues over a pluggable lane backend."""

    def __init__(
        self,
        n_lanes: int,
        backend: str = "thread",
        mp_context: Optional[str] = None,
    ):
        if n_lanes < 1:
            raise ValueError("need at least one lane")
        if backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, not {backend!r}")
        self.n_lanes = int(n_lanes)
        if backend == "process":
            self.backend: LaneBackend = ProcessLaneBackend(mp_context)
        else:
            self.backend = ThreadLaneBackend()
        self._queues: list[asyncio.Queue] = []
        self._tasks: list[asyncio.Task] = []
        self.started = False

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> None:
        if self.started:
            return
        await self.backend.start(self.n_lanes)
        self._queues = [asyncio.Queue() for _ in range(self.n_lanes)]
        self._tasks = [
            asyncio.create_task(self._lane_main(q), name=f"blog-lane-{i}")
            for i, q in enumerate(self._queues)
        ]
        self.started = True

    async def stop(self) -> None:
        if not self.started:
            return
        for q in self._queues:
            q.put_nowait(None)  # sentinel: drain then exit
        await asyncio.gather(*self._tasks, return_exceptions=True)
        await self.backend.stop()
        self._tasks = []
        self._queues = []
        self.started = False

    # -- submission --------------------------------------------------------
    def submit(self, lane: int, run: Callable[[Job], Awaitable[Any]]) -> Job:
        """Enqueue work on a lane; await ``job.future`` for the result."""
        if not self.started:
            raise RuntimeError("worker pool is not running; call start()")
        job = Job(run=run, future=asyncio.get_running_loop().create_future())
        self._queues[lane].put_nowait(job)
        return job

    def pending_jobs(self) -> int:
        """Jobs enqueued but not yet resolved (drain watches this)."""
        return sum(q.qsize() for q in self._queues) if self.started else 0

    def cancel_queued(self) -> int:
        """Fail every job still *waiting* in a lane queue (in-flight jobs
        are untouched).  The drain deadline uses this: work that never
        started is refused rather than run past the deadline."""
        cancelled = 0
        for q in self._queues:
            survivors: list = []
            # qsize is exact here: queues are touched from the loop thread only
            while q.qsize():
                job = q.get_nowait()
                q.task_done()
                if job is None:  # keep the stop() sentinel in place
                    survivors.append(job)
                    continue
                if not job.future.done():
                    job.future.set_exception(
                        QueryTimeout("service draining: queued work cancelled")
                    )
                    cancelled += 1
            for job in survivors:
                q.put_nowait(job)
        return cancelled

    def lane_stats(self) -> list[dict]:
        return self.backend.lane_stats()

    # -- the lane protocol ------------------------------------------------
    def lane(self, lane: int) -> LaneView:
        """The parent's view of ``lane`` (what its worker holds)."""
        return self.backend.lanes[lane]

    async def lane_call(self, lane: int, msg: Op[R], timeout: Optional[float]) -> R:
        """One lane-protocol request/response with ``lane``'s worker."""
        return await self.backend.call(lane, msg, timeout)

    # -- lane loop ---------------------------------------------------------
    async def _lane_main(self, queue: asyncio.Queue) -> None:
        while True:
            job = await queue.get()
            if job is None:
                queue.task_done()
                return
            job.started_at = time.monotonic()
            try:
                result = await job.run(job)
            except Exception as exc:  # noqa: BLE001 — delivered to the caller
                if not job.future.done():
                    job.future.set_exception(exc)
            else:
                if not job.future.done():
                    job.future.set_result(result)
            finally:
                queue.task_done()
