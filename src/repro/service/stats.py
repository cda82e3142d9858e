"""Service-level aggregation over the metrics registry.

Every request the service finishes (served, failed, or timed out) is
recorded twice and only twice: its span tree (where its time went) and
the registry series :class:`ServiceStats` folds it into.  The summary
an operator watches — p50/p95 latency, throughput, cache hit rate,
per-engine counts, rejections — is read back from those series.

Nothing here is asynchronous: the service records from the event-loop
thread only, so plain counters suffice.
"""

from __future__ import annotations

import math
import time
from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:  # telemetry imports this module; keep the edge type-only
    from .telemetry import Counter, MetricsRegistry

__all__ = [
    "ServiceStats",
    "bound_series",
    "percentile",
    "format_stats",
    "format_lane_stats",
]


def percentile(values: list[float], q: float) -> float:
    """The q-th percentile (0..100) by linear interpolation; 0.0 when empty.

    Hardened edges (each pinned by a regression test): the input need
    not be sorted; a single sample is returned for any q; q is clamped
    into [0, 100] (so q=0 is the min and q=100 exactly the max, never
    an index error or a wrapped-around ``xs[-1]``); NaN samples are
    dropped so the result is NaN-free whenever any finite sample
    exists.
    """
    xs = sorted(v for v in values if not math.isnan(v))
    if not xs:
        return 0.0
    if len(xs) == 1:
        return xs[0]
    q = min(100.0, max(0.0, q))
    pos = (q / 100.0) * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    frac = pos - lo
    return xs[lo] * (1.0 - frac) + xs[hi] * frac


class bound_series:
    """A metric series as an attribute of an object holding a
    ``_registry``: ``hits = bound_series("counter", "blog_request_cache_hits_total")``.

    The first read asks the registry for the series, which registers it
    then, as a call at the use site would: a series nobody used stays
    out of the exposition.  The series is then kept on the instance, so
    every later read is a plain attribute lookup.
    """

    def __init__(self, kind: str, name: str):
        self.kind = kind
        self.name = name

    def __set_name__(self, owner: type, attr: str) -> None:
        self.attr = attr

    def __get__(self, obj: Any, owner: Optional[type] = None) -> Any:
        if obj is None:
            return self
        bound = getattr(obj._registry, self.kind)(self.name)
        obj.__dict__[self.attr] = bound  # shadows this descriptor from now on
        return bound


class ServiceStats:
    """Folds finished requests into the metrics registry and reads the
    operator summary back from it.

    Counts are exact registry counters; latency percentiles come from
    bounded histogram reservoirs, so memory stays fixed however long
    the service runs.  Latency figures cover served (ok) requests only,
    from their own histograms.
    """

    _requests = bound_series("counter", "blog_requests_total")
    _errors = bound_series("counter", "blog_errors_total")
    _cache_hits = bound_series("counter", "blog_request_cache_hits_total")
    _degraded = bound_series("counter", "blog_degraded_total")
    _retries = bound_series("counter", "blog_retries_total")
    _request_s = bound_series("histogram", "blog_request_seconds")
    _queue_wait_s = bound_series("histogram", "blog_queue_wait_seconds")
    _engine_s = bound_series("histogram", "blog_engine_seconds")
    _served_s = bound_series("histogram", "blog_served_seconds")
    _served_queue_wait_s = bound_series("histogram", "blog_served_queue_wait_seconds")
    _rejection_s = bound_series("histogram", "blog_rejection_seconds")

    def __init__(self, registry: "MetricsRegistry"):
        self._registry = registry
        #: engine -> its ``blog_requests_engine_total`` series
        self._by_engine: dict[str, "Counter"] = {}
        self._first_done: Optional[float] = None
        self._last_done: Optional[float] = None

    # -- recording ---------------------------------------------------------
    def record(
        self,
        ok: bool,
        engine_used: Optional[str],
        cache_hit: bool,
        degraded: bool,
        retries: int,
        total_s: float,
        queue_wait_s: float,
        engine_s: float,
    ) -> None:
        done = time.monotonic()
        if self._first_done is None:
            self._first_done = done
        self._last_done = done
        self._requests.inc()
        if engine_used is not None:
            by_engine = self._by_engine.get(engine_used)
            if by_engine is None:
                by_engine = self._by_engine[engine_used] = self._registry.counter(
                    "blog_requests_engine_total", engine=engine_used
                )
            by_engine.inc()
        if not ok:
            self._errors.inc()
        if cache_hit:
            self._cache_hits.inc()
        if degraded:
            self._degraded.inc()
        if retries:
            self._retries.inc(retries)
        self._request_s.observe(total_s)
        self._queue_wait_s.observe(queue_wait_s)
        if not cache_hit:
            self._engine_s.observe(engine_s)
        if ok:
            self._served_s.observe(total_s)
            self._served_queue_wait_s.observe(queue_wait_s)

    def record_rejection(self, total_s: float) -> None:
        self._rejection_s.observe(total_s)

    # -- reading -----------------------------------------------------------
    def summary(self) -> dict:
        """One flat dict of everything: counts, latency, throughput."""
        reg = self._registry

        def count(name: str) -> int:
            counter = reg.get(name)
            return int(counter.value) if counter is not None else 0

        lookups = count("blog_requests_total")
        errors = count("blog_errors_total")
        served = lookups - errors
        hits = count("blog_request_cache_hits_total")
        rejections = reg.get("blog_rejection_seconds")
        lat = reg.get("blog_served_seconds")
        waits = reg.get("blog_served_queue_wait_seconds")
        span = 0.0
        if self._first_done is not None and self._last_done is not None:
            span = self._last_done - self._first_done
        return {
            "served": served,
            "errors": errors,
            "rejected": rejections.count if rejections else 0,
            "cache_hits": hits,
            "cache_hit_rate": hits / lookups if lookups else 0.0,
            "retries": count("blog_retries_total"),
            "degraded": count("blog_degraded_total"),
            "p50_ms": lat.quantile(0.5) * 1000.0 if lat else 0.0,
            "p95_ms": lat.quantile(0.95) * 1000.0 if lat else 0.0,
            "mean_ms": lat.sum / lat.count * 1000.0 if lat else 0.0,
            "p95_queue_wait_ms": waits.quantile(0.95) * 1000.0 if waits else 0.0,
            "throughput_qps": served / span if span > 0 else float(served),
            "by_engine": {
                labels["engine"]: int(series.value)
                for labels, series in reg.series("blog_requests_engine_total")
            },
        }


def format_lane_stats(lanes: list[dict]) -> str:
    """One line per lane: backend, call count, respawns, IPC traffic."""
    out = []
    for lane in lanes:
        line = (
            f"lane {lane['lane']} [{lane['backend']}]  "
            f"calls {lane.get('calls', 0)}  respawns {lane.get('respawns', 0)}"
        )
        ipc = lane.get("ipc_bytes_out", 0) + lane.get("ipc_bytes_in", 0)
        if ipc:
            line += (
                f"  ipc {lane['ipc_bytes_out']}B out / {lane['ipc_bytes_in']}B in"
            )
        if lane.get("pid") is not None:
            line += f"  pid {lane['pid']}"
        out.append(line)
    return "\n".join(out)


def format_stats(summary: dict) -> str:
    """Human-readable one-screen rendering of :meth:`BLogService.stats`
    (or a bare :meth:`ServiceStats.summary`)."""
    lines = [
        f"served {summary['served']}  errors {summary['errors']}  "
        f"rejected {summary['rejected']}",
        f"latency p50 {summary['p50_ms']:.1f} ms  p95 {summary['p95_ms']:.1f} ms  "
        f"mean {summary['mean_ms']:.1f} ms",
        f"throughput {summary['throughput_qps']:.1f} q/s  "
        f"queue-wait p95 {summary['p95_queue_wait_ms']:.1f} ms",
        f"cache hit rate {summary['cache_hit_rate']:.2f}  "
        f"retries {summary['retries']}  degraded {summary['degraded']}",
        "engines: "
        + ", ".join(f"{k}={v}" for k, v in sorted(summary["by_engine"].items())),
    ]
    if "backend" in summary:
        lines.append(
            f"backend {summary['backend']}  "
            f"lane resets {summary.get('lane_resets', 0)}  "
            f"sessions abandoned {summary.get('sessions_abandoned', 0)}"
        )
    if "lifecycle" in summary:
        line = f"lifecycle {summary['lifecycle']}"
        durability = summary.get("durability") or {}
        for name, d in sorted(durability.items()):
            rec = d.get("recovery", {})
            line += (
                f"\ndurable {name}: seq {d.get('seq', 0)}  "
                f"wal appends {d.get('wal_appends', 0)} "
                f"({d.get('wal_bytes', 0)}B)  "
                f"checkpoints {d.get('checkpoints', 0)}  "
                f"recovered {rec.get('records_replayed', 0)} replayed / "
                f"{rec.get('records_skipped', 0)} skipped"
            )
        lines.append(line)
    if summary.get("lanes"):
        lines.append(format_lane_stats(summary["lanes"]))
    return "\n".join(lines)
