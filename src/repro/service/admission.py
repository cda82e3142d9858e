"""Admission control: bounded queue depth with explicit rejection.

A serving system that accepts every request degrades by unbounded
latency; B-LOG's serving layer instead bounds the number of admitted,
not-yet-finished queries and rejects the overflow with
:class:`Overloaded` — the client sees a fast, explicit "try again"
instead of a slow timeout.  The bound covers queued *and* executing
requests, so it is the knob that caps total memory held by in-flight
OR-trees.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .telemetry import MetricsRegistry

__all__ = ["Overloaded", "AdmissionController"]


class Overloaded(RuntimeError):
    """The service's pending-query bound is reached; retry later."""

    def __init__(self, pending: int, max_pending: int):
        super().__init__(
            f"service overloaded: {pending} queries pending "
            f"(bound {max_pending}); retry later"
        )
        self.pending = pending
        self.max_pending = max_pending


class AdmissionController:
    """Counts in-flight queries against a hard bound.

    Used from the event-loop thread only, so plain integers are enough;
    ``acquire`` never blocks — it admits or raises.  ``pending`` is the
    one count kept here (admission reads it); the admitted, rejected and
    peak counts live only in the registry's series.
    """

    def __init__(self, max_pending: int, registry: "MetricsRegistry"):
        if max_pending < 1:
            raise ValueError("max_pending must be at least 1")
        self.max_pending = int(max_pending)
        self.pending = 0
        self._m_pending = registry.gauge("blog_pending")
        #: high-water mark of concurrent in-flight queries — the operator
        #: signal for "how close to the bound does real traffic get"
        #: (e.g. a respawning process lane backs its whole queue up here)
        self._m_peak = registry.gauge("blog_peak_pending")
        self._m_admitted = registry.counter("blog_admitted_total")
        self._m_rejected = registry.counter("blog_rejected_total")

    @property
    def admitted(self) -> int:
        return int(self._m_admitted.value)

    @property
    def rejected(self) -> int:
        return int(self._m_rejected.value)

    @property
    def peak_pending(self) -> int:
        return int(self._m_peak.value)

    def acquire(self) -> None:
        """Admit one request or raise :class:`Overloaded`."""
        if self.pending >= self.max_pending:
            self._m_rejected.inc()
            raise Overloaded(self.pending, self.max_pending)
        self.pending += 1
        self._m_admitted.inc()
        self._m_pending.set(self.pending)
        if self.pending > self._m_peak.value:
            self._m_peak.set(self.pending)

    def release(self) -> None:
        """A previously admitted request finished (however it finished)."""
        if self.pending <= 0:
            raise RuntimeError("release() without matching acquire()")
        self.pending -= 1
        self._m_pending.set(self.pending)

    def __repr__(self) -> str:
        return (
            f"AdmissionController(pending={self.pending}/{self.max_pending}, "
            f"admitted={self.admitted}, rejected={self.rejected})"
        )
