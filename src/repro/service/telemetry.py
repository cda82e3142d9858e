"""Structured tracing and metrics for the B-LOG service.

The service layer (admission → cache → lane dispatch → engine → merge)
records each request's outcome in exactly two places, both here: its
span tree (*where the time went*) and the metrics registry (*what
happened*, folded by :class:`~repro.service.stats.ServiceStats`):

* **Spans** — a span is one named phase of a request (``admission``,
  ``queue``, ``lane-dispatch``, ``engine``, ``cache``, ``merge``, plus
  ``respawn``/``replay`` after a lane reset) with a start, an end, a
  parent, and free-form attributes.  Every request the service finishes
  owns exactly one root span; the phases hang off it as a tree.  Engine
  counters (expansions, pruned chains, solution bounds) flow up as span
  attributes inside the lane worker's reply, on both lane backends.
* **Metrics** — a zero-dependency registry of counters, gauges, and
  bounded-reservoir histograms with a Prometheus-flavoured text
  exposition (the ``metrics`` TCP verb).  ``stats()`` reads its counts
  from the registry's exact counters and its percentiles from the
  bounded reservoirs, so nothing grows with the request count.
* **Exports** — an optional JSONL trace log (one line per span, size
  rotation) and a slow-query log that dumps the full span tree of any
  request over a configurable threshold.

Everything here runs on the event-loop thread (spans are started and
ended there even when the work they time runs on a worker thread or in
a lane subprocess), so plain data structures suffice.  Timestamps come
from one monotonic clock per tracer and are clamped so time never runs
backwards within a span tree — an invariant the test harness checks.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, Optional

from .stats import percentile

__all__ = [
    "Span",
    "Trace",
    "Tracer",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "METRIC_CATALOG",
    "JsonlTraceLog",
    "Telemetry",
    "format_trace",
    "read_trace_log",
]


#: Every metric series the service emits, name -> kind.  The registry
#: registers lazily, so a typo at a call site would otherwise mint a new
#: series nobody reads; instead :class:`MetricsRegistry` refuses any name
#: missing here or asked for as another kind.  Add the name here first,
#: then use it.
METRIC_CATALOG: dict[str, str] = {
    # request path (stats.py)
    "blog_requests_total": "counter",
    "blog_requests_engine_total": "counter",
    "blog_request_cache_hits_total": "counter",
    "blog_errors_total": "counter",
    "blog_degraded_total": "counter",
    "blog_retries_total": "counter",
    "blog_incomplete_total": "counter",
    "blog_request_seconds": "histogram",
    "blog_queue_wait_seconds": "histogram",
    "blog_engine_seconds": "histogram",
    "blog_rejection_seconds": "histogram",
    "blog_served_seconds": "histogram",
    "blog_served_queue_wait_seconds": "histogram",
    # sessions (router.py)
    "blog_sessions_opened_total": "counter",
    "blog_sessions_merged_total": "counter",
    "blog_sessions_abandoned_total": "counter",
    "blog_sessions_open": "gauge",
    # admission (admission.py)
    "blog_pending": "gauge",
    "blog_peak_pending": "gauge",
    "blog_admitted_total": "counter",
    "blog_rejected_total": "counter",
    # answer cache (cache.py)
    "blog_cache_hits_total": "counter",
    "blog_cache_misses_total": "counter",
    "blog_cache_stale_total": "counter",
    "blog_cache_entries": "gauge",
    # transport (server.py)
    "blog_lane_resets_total": "counter",
    "blog_client_disconnects_total": "counter",
    "blog_oversized_lines_total": "counter",
    # durability + lifecycle (server.py, lifecycle.py)
    "blog_wal_appends_total": "counter",
    "blog_wal_fsync_seconds": "histogram",
    "blog_checkpoint_seconds": "histogram",
    "blog_checkpoint_errors_total": "counter",
    "blog_recovery_records_replayed_total": "counter",
    "blog_drain_seconds": "histogram",
}


# -- spans -------------------------------------------------------------------


@dataclass(eq=False)
class Span:
    """One named phase of a request: an interval with attributes."""

    name: str
    trace_id: str
    span_id: int
    parent_id: Optional[int]
    start_s: float
    end_s: Optional[float] = None
    attributes: dict[str, object] = field(default_factory=dict)

    def set(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    @property
    def duration_s(self) -> float:
        return (self.end_s if self.end_s is not None else self.start_s) - self.start_s

    def to_dict(self) -> dict:
        return {
            "trace": self.trace_id,
            "span": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "duration_s": self.duration_s,
            "attrs": self.attributes,
        }


class _SpanContext:
    """``with trace.span("engine") as sp:`` — starts on enter, ends on
    exit; an escaping exception is recorded as the span's ``error``."""

    def __init__(self, trace: "Trace", name: str, attrs: dict[str, object]):
        self._trace = trace
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> Span:
        trace = self._trace
        self.span = Span(
            name=self._name,
            trace_id=trace.trace_id,
            span_id=trace._take_id(),
            parent_id=trace.current.span_id,
            start_s=trace._now(),
            attributes=self._attrs,
        )
        trace.spans.append(self.span)
        trace._stack.append(self.span)
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.span.set("error", f"{exc_type.__name__}: {exc}")
        self._trace._close(self.span)
        return False


class Trace:
    """One request's span tree.  Opened by ``with tracer.trace(...) as
    trace:``; every span operation goes through the trace so the tree
    shares one clamped clock (timestamps never decrease within a tree).

    Leaving the block ends the root; an exception escaping it while the
    root is still open ends it with ``ok=False, outcome="internal-error"``.
    """

    def __init__(
        self,
        tracer: "Tracer",
        trace_id: str,
        name: str,
        attributes: dict[str, object],
    ):
        self._tracer = tracer
        self.trace_id = trace_id
        self._next_id = 0
        self._last_ts = tracer.clock()
        self.root = Span(
            name=name,
            trace_id=trace_id,
            span_id=self._take_id(),
            parent_id=None,
            start_s=self._last_ts,
            attributes=dict(attributes),
        )
        self.spans: list[Span] = [self.root]
        self._stack: list[Span] = [self.root]
        self.ended = False

    def __enter__(self) -> "Trace":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None:
            self.end()
        else:
            self.end(ok=False, outcome="internal-error")
        return False

    # -- clock -------------------------------------------------------------
    def _take_id(self) -> int:
        sid = self._next_id
        self._next_id += 1
        return sid

    def _now(self) -> float:
        """The tracer clock, clamped so it never runs backwards within
        this trace (OS clock hiccups must not produce negative spans)."""
        t = self._tracer.clock()
        if t < self._last_ts:
            t = self._last_ts
        self._last_ts = t
        return t

    # -- building the tree -------------------------------------------------
    @property
    def current(self) -> Span:
        return self._stack[-1]

    def span(self, name: str, **attrs: Any) -> _SpanContext:
        """Context manager for a child span of the current span."""
        return _SpanContext(self, name, attrs)

    def _close(self, span: Span) -> None:
        """End ``span`` and anything opened after it that was left
        dangling (a no-op if the root already ended it)."""
        if span.end_s is not None:
            return
        span.end_s = self._now()
        if span in self._stack:
            while self._stack[-1] is not span:
                dangling = self._stack.pop()
                if dangling.end_s is None:
                    dangling.end_s = span.end_s
            self._stack.pop()

    def span_at(
        self,
        name: str,
        start_s: float,
        end_s: float,
        parent: Optional[Span] = None,
        **attrs: Any,
    ) -> Span:
        """Record a phase whose interval was measured elsewhere (queue
        wait stamped by the worker pool, a lane respawn timed inside the
        backend).  The interval is clamped into the parent so nesting
        invariants hold even against foreign timestamps."""
        parent = parent if parent is not None else self.current
        start_s = max(float(start_s), parent.start_s)
        end_s = max(float(end_s), start_s)
        self._last_ts = max(self._last_ts, end_s)
        span = Span(
            name=name,
            trace_id=self.trace_id,
            span_id=self._take_id(),
            parent_id=parent.span_id,
            start_s=start_s,
            end_s=end_s,
            attributes=attrs,
        )
        self.spans.append(span)
        return span

    def end(self, **attrs: Any) -> None:
        """Finish the root span (closing any dangling children first) and
        hand the trace to the tracer's exporters.  Idempotent."""
        if self.ended:
            return
        if len(self._stack) > 1:
            self._close(self._stack[1])
        for k, v in attrs.items():
            self.root.set(k, v)
        self.root.end_s = self._now()
        self.ended = True
        self._tracer._finish(self)

    # -- reading -----------------------------------------------------------
    def find(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]


class Tracer:
    """Creates traces, keeps the recent finished ones, fans out exports."""

    def __init__(self, clock: Callable[[], float] = time.monotonic, keep: int = 512):
        self.clock = clock
        self.finished: deque[Trace] = deque(maxlen=keep)
        self.on_finish: list[Callable[[Trace], None]] = []
        self.started = 0
        self.completed = 0
        self.export_errors = 0

    def trace(self, trace_id: str, name: str = "request", **attrs: Any) -> Trace:
        """``with tracer.trace(rid, program=...) as trace:`` — a new root
        span, ended when the block exits (see :class:`Trace`)."""
        self.started += 1
        return Trace(self, trace_id, name, attrs)

    def _finish(self, trace: Trace) -> None:
        self.completed += 1
        self.finished.append(trace)
        for hook in self.on_finish:
            try:
                hook(trace)
            except Exception:  # noqa: BLE001 — telemetry must not fail requests
                self.export_errors += 1


def format_trace(trace: Trace) -> str:
    """Indented one-span-per-line rendering of a trace (slow-query log)."""

    def attrs_text(span: Span) -> str:
        parts = []
        for k, v in span.attributes.items():
            if isinstance(v, float):
                parts.append(f"{k}={v:.6g}")
            else:
                parts.append(f"{k}={v}")
        return ("  " + " ".join(parts)) if parts else ""

    lines = [
        f"trace {trace.trace_id} {trace.root.name} "
        f"{trace.root.duration_s * 1000.0:.2f}ms{attrs_text(trace.root)}"
    ]

    def walk(span: Span, depth: int) -> None:
        for child in trace.children(span):
            lines.append(
                f"{'  ' * depth}{child.name} "
                f"{child.duration_s * 1000.0:.2f}ms{attrs_text(child)}"
            )
            walk(child, depth + 1)

    walk(trace.root, 1)
    return "\n".join(lines)


# -- metrics -----------------------------------------------------------------


class Counter:
    """Monotonically increasing count."""

    kind = "counter"

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, n: float = 1.0) -> None:
        if n < 0:
            raise ValueError("counters only go up")
        self.value += n


class Gauge:
    """A value that goes up and down (queue depth, open sessions)."""

    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, v: float) -> None:
        self.value = float(v)

    def inc(self, n: float = 1.0) -> None:
        self.value += n

    def dec(self, n: float = 1.0) -> None:
        self.value -= n


class Histogram:
    """Exact count/sum/min/max plus a bounded reservoir for quantiles.

    The reservoir replacement slot is a deterministic hash of the sample
    ordinal (no ``random``), so runs are reproducible; count and sum are
    always exact regardless of reservoir size.
    """

    kind = "histogram"

    def __init__(self, reservoir: int = 512) -> None:
        if reservoir < 1:
            raise ValueError("reservoir must hold at least one sample")
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._cap = int(reservoir)
        self.reservoir: list[float] = []

    def observe(self, v: float) -> None:
        v = float(v)
        self.count += 1
        self.sum += v
        self.min = v if self.min is None else min(self.min, v)
        self.max = v if self.max is None else max(self.max, v)
        if len(self.reservoir) < self._cap:
            self.reservoir.append(v)
        else:  # deterministic pseudo-random replacement (Knuth multiplicative)
            self.reservoir[(self.count * 2654435761) % self._cap] = v

    def time(self) -> "_Timing":
        """``with hist.time() as t:`` — observe the block's wall time on
        every exit, normal or not; ``t.elapsed_s`` holds it afterwards."""
        return _Timing(self)

    def quantile(self, q: float) -> float:
        return percentile(self.reservoir, q * 100.0)

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "p50": self.quantile(0.5),
            "p95": self.quantile(0.95),
        }


class _Timing:
    """The context manager :meth:`Histogram.time` returns."""

    def __init__(self, histogram: Histogram) -> None:
        self._histogram = histogram
        self.elapsed_s = 0.0

    def __enter__(self) -> "_Timing":
        self._t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.elapsed_s = time.monotonic() - self._t0
        self._histogram.observe(self.elapsed_s)
        return False


def _format_value(v: float) -> str:
    if isinstance(v, float) and v.is_integer():
        return str(int(v))
    return f"{v:.9g}"


class MetricsRegistry:
    """Named metric series: ``registry.counter("blog_requests_total")``.

    A series is identified by (name, labels); asking again returns the
    same object, so call sites register lazily.  Only names in
    :data:`METRIC_CATALOG` exist, each with the kind the catalog gives:
    any other name, or a cataloged name asked for as another kind, is a
    programming error and raises immediately.
    """

    _KINDS: ClassVar[dict[str, type]] = {
        "counter": Counter,
        "gauge": Gauge,
        "histogram": Histogram,
    }

    def __init__(self) -> None:
        self._series: dict[tuple[str, tuple[tuple[str, str], ...]], Any] = {}

    def _get(self, kind: str, name: str, labels: dict[str, str], **kw: Any):
        known = METRIC_CATALOG.get(name)
        if known != kind:
            raise ValueError(
                f"metric {name!r} is not in METRIC_CATALOG"
                if known is None
                else f"metric {name!r} is a {known}, not a {kind}"
            )
        key = (name, tuple(sorted((k, str(v)) for k, v in labels.items())))
        series = self._series.get(key)
        if series is None:
            series = self._KINDS[kind](**kw)
            self._series[key] = series
        return series

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get("counter", name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get("gauge", name, labels)

    def histogram(self, name: str, reservoir: int = 512, **labels: str) -> Histogram:
        return self._get("histogram", name, labels, reservoir=reservoir)

    def get(self, name: str, **labels: str) -> Any:
        """The series, or None if it was never registered (reading does
        not register one)."""
        return self._series.get((name, tuple(sorted((k, str(v)) for k, v in labels.items()))))

    def series(self, name: str) -> list[tuple[dict[str, str], Any]]:
        """Every series registered under ``name``, with its labels."""
        return [(dict(key[1]), s) for key, s in self._series.items() if key[0] == name]

    # -- exposition --------------------------------------------------------
    @staticmethod
    def _label_text(labels: tuple[tuple[str, str], ...]) -> str:
        if not labels:
            return ""
        return "{" + ",".join(f'{k}="{v}"' for k, v in labels) + "}"

    def expose(self) -> str:
        """Text exposition: ``# TYPE`` headers, one ``name{labels} value``
        line per series, deterministic ordering (names, then labels).
        Histograms emit ``_count``, ``_sum``, two quantile lines, and
        ``_max``."""
        lines: list[str] = []
        for name in sorted({key[0] for key in self._series}):
            kind = METRIC_CATALOG[name]
            lines.append(f"# TYPE {name} {kind}")
            keys = sorted(k for k in self._series if k[0] == name)
            for key in keys:
                labels = key[1]
                series = self._series[key]
                lt = self._label_text(labels)
                if kind in ("counter", "gauge"):
                    lines.append(f"{name}{lt} {_format_value(series.value)}")
                    continue
                lines.append(f"{name}_count{lt} {_format_value(float(series.count))}")
                lines.append(f"{name}_sum{lt} {_format_value(series.sum)}")
                for q in ("0.5", "0.95"):
                    qlt = self._label_text(labels + (("q", q),))
                    lines.append(
                        f"{name}{qlt} {_format_value(series.quantile(float(q)))}"
                    )
                lines.append(
                    f"{name}_max{lt} {_format_value(float(series.max or 0.0))}"
                )
        return "\n".join(lines) + ("\n" if lines else "")


# -- exports -----------------------------------------------------------------


class JsonlTraceLog:
    """Span export: one JSON object per span, appended per finished trace,
    with size-based rotation (``path`` → ``path.1`` → ``path.2`` …)."""

    def __init__(self, path: str, max_bytes: int = 10_000_000, backups: int = 2):
        self.path = str(path)
        self.max_bytes = int(max_bytes)
        self.backups = int(backups)
        self.spans_written = 0
        self.rotations = 0
        self._fh = open(self.path, "a", encoding="utf-8")

    def __call__(self, trace: Trace) -> None:
        payload = "".join(
            json.dumps(span.to_dict(), default=str) + "\n" for span in trace.spans
        )
        if self._fh.tell() > 0 and self._fh.tell() + len(payload) > self.max_bytes:
            self._rotate()
        self._fh.write(payload)
        self._fh.flush()
        self.spans_written += len(trace.spans)

    def _rotate(self) -> None:
        self._fh.close()
        for i in range(self.backups, 0, -1):
            src = self.path if i == 1 else f"{self.path}.{i - 1}"
            dst = f"{self.path}.{i}"
            if os.path.exists(src):
                os.replace(src, dst)
        self._fh = open(self.path, "w", encoding="utf-8")
        self.rotations += 1

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()


def read_trace_log(path: str) -> list[dict]:
    """All spans from a JSONL trace log, rotated backups first (i.e. in
    the order they were written)."""
    paths = []
    i = 1
    while os.path.exists(f"{path}.{i}"):
        paths.append(f"{path}.{i}")
        i += 1
    paths.reverse()
    if os.path.exists(path):
        paths.append(path)
    spans: list[dict] = []
    for p in paths:
        with open(p, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    spans.append(json.loads(line))
    return spans


# -- the bundle the service holds -------------------------------------------


class Telemetry:
    """One tracer + one metrics registry + the export/slow-query wiring."""

    def __init__(
        self,
        clock: Callable[[], float] = time.monotonic,
        slow_query_s: Optional[float] = None,
        slow_query_sink: Optional[Callable[[str], None]] = None,
        keep_traces: int = 512,
    ):
        self.tracer = Tracer(clock=clock, keep=keep_traces)
        self.registry = MetricsRegistry()
        self.slow_query_s = slow_query_s
        self.slow_query_sink = slow_query_sink or (
            lambda text: print(text, file=sys.stderr)
        )
        self.slow_queries = 0
        self.trace_log: Optional[JsonlTraceLog] = None
        self.tracer.on_finish.append(self._on_finish)

    def attach_trace_log(
        self, path: str, max_bytes: int = 10_000_000, backups: int = 2
    ) -> JsonlTraceLog:
        self.trace_log = JsonlTraceLog(path, max_bytes=max_bytes, backups=backups)
        self.tracer.on_finish.append(self.trace_log)
        return self.trace_log

    def _on_finish(self, trace: Trace) -> None:
        if (
            self.slow_query_s is not None
            and trace.root.duration_s >= self.slow_query_s
        ):
            self.slow_queries += 1
            self.slow_query_sink(format_trace(trace))

    def close(self) -> None:
        if self.trace_log is not None:
            self.trace_log.close()
