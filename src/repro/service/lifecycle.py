"""Service lifecycle: boot states, signal handling, and graceful drain.

A long-running B-LOG service moves through a small state machine::

    STARTING ──► RECOVERING ──► SERVING ──► DRAINING ──► STOPPED
                 (data dir          ▲  (SIGTERM/SIGINT
                  replay)           │   or drain())
                                    └─ stateless boot skips RECOVERING

``ready`` is True only in SERVING — the ``ready`` TCP verb flips false
during recovery and the moment a drain begins, which is what lets a load
balancer pull the instance before its queue is torn down.  ``health``
stays truthful in every state (the process is alive and answering).

Graceful drain (what SIGTERM means here):

1. **stop accepting** — the TCP listener closes and ``submit`` starts
   refusing with :class:`NotServing`; established connections may still
   read replies for work already admitted.
2. **finish in-flight work** — admitted queries run to completion until
   the drain deadline; work still *queued* (never started) past the
   deadline is failed with a drain error rather than run late.
3. **merge surviving sessions** — every open session is end_session'd
   (its learning is the whole point of the service; §5's merge is the
   commit point), each merge WAL-journaled as usual.
4. **final checkpoint + stop** — the durable stores snapshot, lanes
   close, and the process can exit 0.  Established connections stay
   open and answer ``stopped`` until their clients hang up.

Signal wiring uses ``loop.add_signal_handler`` so the handler runs on
the event loop (no async-signal-safety games); platforms without it
(Windows event loops) simply don't get signal-triggered drain — the
``drain()`` coroutine itself works everywhere.
"""

from __future__ import annotations

import asyncio
import enum
import signal
import time
import weakref
from typing import TYPE_CHECKING, Iterable, Optional

if TYPE_CHECKING:  # avoid the import cycle; the service owns its lifecycle
    from .server import BLogService

__all__ = ["LifecycleState", "NotServing", "ServiceLifecycle"]


class LifecycleState(enum.Enum):
    STARTING = "starting"
    RECOVERING = "recovering"
    SERVING = "serving"
    DRAINING = "draining"
    STOPPED = "stopped"


class NotServing(RuntimeError):
    """The service is not accepting new work (draining or stopped)."""


class ServiceLifecycle:
    """The state machine, the signal handlers, and the drain protocol."""

    def __init__(self, service: "BLogService", drain_timeout: float = 10.0):
        # weak: the service owns its lifecycle, and a strong reference
        # back would keep a stopped service's stores and cache alive
        # until the collector's next full pass
        self._service = weakref.proxy(service)
        self.drain_timeout = float(drain_timeout)
        self.state = LifecycleState.STARTING
        #: every state this lifecycle has passed through, in order —
        #: lets tests (and operators reading ``stats``) see that a boot
        #: really went through RECOVERING even though it is synchronous
        self.history: list[str] = [self.state.value]
        self.terminated = asyncio.Event()
        self.drain_report: Optional[dict] = None
        self.signal_errors = 0
        self._installed: list[signal.Signals] = []
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._drain_task: Optional[asyncio.Task] = None

    # -- state -------------------------------------------------------------
    @property
    def ready(self) -> bool:
        """Should a load balancer send this instance new work?"""
        return self.state is LifecycleState.SERVING

    @property
    def accepting(self) -> bool:
        """May ``submit`` admit a request right now?  (STARTING stays
        accepting so a not-started pool reports its own error, as it
        always has; DRAINING/STOPPED refuse with :class:`NotServing`.)"""
        return self.state not in (LifecycleState.DRAINING, LifecycleState.STOPPED)

    def transition(self, state: LifecycleState) -> None:
        if state is not self.state:
            self.state = state
            self.history.append(state.value)

    def describe(self) -> dict:
        """The ``health`` verb's payload."""
        return {
            "state": self.state.value,
            "ready": self.ready,
            "history": list(self.history),
            "draining": self.state is LifecycleState.DRAINING,
            "drain": self.drain_report,
            "signal_errors": self.signal_errors,  # failed signal wiring
        }

    # -- signals -----------------------------------------------------------
    def install_signal_handlers(
        self,
        loop: Optional[asyncio.AbstractEventLoop] = None,
        signals: Iterable[signal.Signals] = (signal.SIGTERM, signal.SIGINT),
    ) -> bool:
        """Route SIGTERM/SIGINT to a graceful drain.  Returns False when
        the platform's loop has no ``add_signal_handler`` (the drain
        coroutine still works; only the signal wiring is unavailable)."""
        self._loop = loop if loop is not None else asyncio.get_event_loop()
        installed = False
        for sig in signals:
            try:
                self._loop.add_signal_handler(sig, self._on_signal, sig)
            except (NotImplementedError, RuntimeError):
                self.signal_errors += 1
                continue
            self._installed.append(sig)
            installed = True
        return installed

    def remove_signal_handlers(self) -> None:
        if self._loop is None:
            return
        for sig in self._installed:
            try:
                self._loop.remove_signal_handler(sig)
            except (NotImplementedError, RuntimeError):
                self.signal_errors += 1
        self._installed = []

    def _on_signal(self, sig: signal.Signals) -> None:
        """Loop-thread signal callback: start (or join) the drain."""
        if self._drain_task is None or self._drain_task.done():
            self._drain_task = asyncio.ensure_future(
                self.drain(timeout=self.drain_timeout)
            )

    # -- drain -------------------------------------------------------------
    async def drain(self, timeout: Optional[float] = None) -> dict:
        """Gracefully wind the service down (the four steps above).

        Idempotent: a second caller waits for the first drain and gets
        the same report.  Returns the drain report (also kept on
        ``drain_report`` and shown by the ``health`` verb).
        """
        if self.state in (LifecycleState.DRAINING, LifecycleState.STOPPED):
            await self.terminated.wait()
            return self.drain_report or {}
        svc = self._service
        timeout = self.drain_timeout if timeout is None else float(timeout)
        self.transition(LifecycleState.DRAINING)
        cancelled = 0
        merged = 0
        unmerged = 0
        with svc.telemetry.registry.histogram("blog_drain_seconds").time() as timing:
            deadline = time.monotonic() + timeout
            await svc.close_ingress()
            while (
                svc.admission.pending > 0 or svc.pool.pending_jobs() > 0
            ) and time.monotonic() < deadline:
                await asyncio.sleep(0.02)
            if svc.pool.pending_jobs() > 0:
                cancelled = svc.pool.cancel_queued()
            # cancelled jobs resolve their submit() coroutines on the next
            # loop iterations; wait (bounded) for admission to empty out
            settle = time.monotonic() + 1.0
            while svc.admission.pending > 0 and time.monotonic() < settle:
                await asyncio.sleep(0.02)
            for program, session in svc.sessions_to_merge():
                try:
                    report = await svc.end_session(program, session)
                except Exception:
                    # a lane that died during shutdown: the session is
                    # abandoned (never merged), the drain continues
                    unmerged += 1
                    continue
                if report is not None:
                    merged += 1
                else:
                    unmerged += 1
            # final checkpoint happens inside; established connections
            # stay open and keep answering (``stopped``)
            await svc.stop(close_connections=False)
        self.transition(LifecycleState.STOPPED)
        self.drain_report = {
            "duration_s": timing.elapsed_s,
            "cancelled": cancelled,
            "sessions_merged": merged,
            "sessions_unmerged": unmerged,
            "pending_at_exit": svc.admission.pending,
        }
        self.terminated.set()
        return self.drain_report
