"""Discrete-event simulation kernel for the B-LOG machine models.

Python's GIL rules out measuring real MIMD behaviour with threads, so
every architectural claim of section 6 (latency hiding by multitasking,
minimum-seeking network traffic, SPD paging) is evaluated on this
deterministic DES instead: virtual time in cycles, generator-based
processes, counted resources, and broadcast signals.

Processes are plain generators that ``yield`` requests:

* ``Timeout(dt)``   — resume after ``dt`` cycles;
* ``Acquire(res)``  — resume once a unit of ``res`` is held (FIFO);
* ``WaitSignal(s)`` — resume at the next ``s.fire()``.

Determinism: simultaneous events run in schedule order (a monotone
sequence number breaks time ties), so runs are exactly reproducible.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Simulator",
    "Process",
    "Timeout",
    "Acquire",
    "WaitSignal",
    "Resource",
    "Signal",
    "SimError",
]


class SimError(RuntimeError):
    """Simulation protocol violation (bad yield, negative delay, ...)."""


@dataclass(frozen=True)
class Timeout:
    """Yield request: sleep for ``delay`` cycles."""

    delay: float

    def __post_init__(self) -> None:
        if self.delay < 0:
            raise SimError(f"negative delay {self.delay}")


@dataclass(frozen=True)
class Acquire:
    """Yield request: obtain one unit of ``resource`` (FIFO queueing)."""

    resource: "Resource"


@dataclass(frozen=True)
class WaitSignal:
    """Yield request: block until the signal fires; receives its payload."""

    signal: "Signal"


class Resource:
    """A counted resource (k servers, FIFO wait queue).

    Holders must call :meth:`release` exactly once per grant; the
    simulator tracks utilization (busy server-cycles / elapsed).
    """

    def __init__(self, sim: "Simulator", capacity: int = 1, name: str = "resource"):
        if capacity < 1:
            raise SimError("resource capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.in_use = 0
        self.waiting: list["Process"] = []
        self._busy_cycles = 0.0
        self._last_change = 0.0
        self.grants = 0

    def _account(self) -> None:
        now = self.sim.now
        self._busy_cycles += self.in_use * (now - self._last_change)
        self._last_change = now

    def _try_grant(self, proc: "Process") -> bool:
        if self.in_use < self.capacity:
            self._account()
            self.in_use += 1
            self.grants += 1
            return True
        self.waiting.append(proc)
        return False

    def release(self) -> None:
        """Release one unit; wakes the longest-waiting process."""
        if self.in_use <= 0:
            raise SimError(f"release of idle resource {self.name!r}")
        self._account()
        self.in_use -= 1
        if self.waiting:
            proc = self.waiting.pop(0)
            self._account()
            self.in_use += 1
            self.grants += 1
            self.sim._schedule_resume(proc, None)

    def utilization(self) -> float:
        """Mean busy fraction over elapsed time (all servers)."""
        self._account()
        elapsed = self.sim.now
        if elapsed <= 0:
            return 0.0
        return self._busy_cycles / (elapsed * self.capacity)


class Signal:
    """A broadcast condition: every waiter resumes on :meth:`fire`."""

    def __init__(self, sim: "Simulator", name: str = "signal"):
        self.sim = sim
        self.name = name
        self.waiting: list["Process"] = []

    def fire(self, payload: Any = None) -> int:
        """Wake all waiters with ``payload``; returns how many woke."""
        woken = self.waiting
        self.waiting = []
        for proc in woken:
            self.sim._schedule_resume(proc, payload)
        return len(woken)


class Process:
    """A running generator inside the simulator."""

    def __init__(self, sim: "Simulator", gen: Generator, name: str):
        self.sim = sim
        self.gen = gen
        self.name = name
        self.alive = True
        self.result: Any = None

    def _step(self, value: Any) -> None:
        try:
            request = self.gen.send(value)
        except StopIteration as stop:
            self.alive = False
            self.result = stop.value
            self.sim._finished(self)
            return
        if isinstance(request, Timeout):
            self.sim._schedule_resume(self, None, delay=request.delay)
        elif isinstance(request, Acquire):
            if request.resource._try_grant(self):
                self.sim._schedule_resume(self, None)
        elif isinstance(request, WaitSignal):
            request.signal.waiting.append(self)
        else:
            raise SimError(
                f"process {self.name!r} yielded {request!r}; expected "
                "Timeout/Acquire/WaitSignal"
            )


class Simulator:
    """The event loop: virtual clock + pending-event heap."""

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list[tuple[float, int, Process, Any]] = []
        self._seq = itertools.count()
        self.processes: list[Process] = []
        self.events_executed = 0

    # -- construction ----------------------------------------------------------
    def resource(self, capacity: int = 1, name: str = "resource") -> Resource:
        return Resource(self, capacity, name)

    def signal(self, name: str = "signal") -> Signal:
        return Signal(self, name)

    def spawn(self, gen: Generator, name: str = "process") -> Process:
        """Register a generator as a process, started at the current time."""
        proc = Process(self, gen, name)
        self.processes.append(proc)
        self._schedule_resume(proc, None)
        return proc

    # -- internals ------------------------------------------------------------
    def _schedule_resume(self, proc: Process, value: Any, delay: float = 0.0) -> None:
        heapq.heappush(self._heap, (self.now + delay, next(self._seq), proc, value))

    def _finished(self, proc: Process) -> None:
        pass  # hook for subclasses; Process.alive already updated

    # -- running ---------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: int = 10_000_000) -> float:
        """Run to quiescence (or ``until`` / ``max_events``); returns now."""
        while self._heap:
            if self.events_executed >= max_events:
                raise SimError(f"exceeded {max_events} events — livelock?")
            time, _, proc, value = self._heap[0]
            if until is not None and time > until:
                self.now = until
                return self.now
            heapq.heappop(self._heap)
            self.now = time
            self.events_executed += 1
            if proc.alive:
                proc._step(value)
        return self.now

    @property
    def idle(self) -> bool:
        return not self._heap
