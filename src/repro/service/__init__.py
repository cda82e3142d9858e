"""The B-LOG serving layer: concurrent query service over the engine.

``BLogService`` multiplexes many clients over named programs with
session-affinity routing (one session, one lane, one local weight
store), a bounded worker pool with deadlines and retry over a
pluggable lane backend (one lane protocol, two transports: ``thread``
runs each lane's worker on a shared GIL-bound executor; ``process``
runs it in one warm subprocess per lane — real parallelism; both hold
delta-synced weight mirrors), a generation-guarded answer cache,
queue-depth backpressure, and per-request tracing — in-process via
``await service.submit(...)`` or over a line-JSON TCP endpoint via
``serve_tcp``.
"""

from .admission import AdmissionController, Overloaded
from .cache import (
    AnswerCache,
    cache_key,
    canonical_query,
    canonical_query_text,
    slot_names,
)
from .lifecycle import LifecycleState, NotServing, ServiceLifecycle
from .router import SessionRouter, SessionState
from .server import BLogService, ProgramEntry, QueryRequest, QueryResponse
from .stats import format_lane_stats, format_stats, percentile
from .telemetry import (
    JsonlTraceLog,
    MetricsRegistry,
    Span,
    Telemetry,
    Trace,
    Tracer,
    format_trace,
    read_trace_log,
)
from .workers import (
    BACKENDS,
    Job,
    LaneBackend,
    LaneView,
    ProcessLaneBackend,
    QueryTimeout,
    ThreadLaneBackend,
    WorkerDied,
    WorkerPool,
)

__all__ = [
    "AdmissionController",
    "Overloaded",
    "AnswerCache",
    "cache_key",
    "canonical_query",
    "canonical_query_text",
    "slot_names",
    "SessionRouter",
    "SessionState",
    "LifecycleState",
    "NotServing",
    "ServiceLifecycle",
    "BLogService",
    "ProgramEntry",
    "QueryRequest",
    "QueryResponse",
    "format_stats",
    "format_lane_stats",
    "percentile",
    "Job",
    "QueryTimeout",
    "WorkerDied",
    "WorkerPool",
    "BACKENDS",
    "LaneBackend",
    "LaneView",
    "ThreadLaneBackend",
    "ProcessLaneBackend",
    "Telemetry",
    "Tracer",
    "Trace",
    "Span",
    "MetricsRegistry",
    "JsonlTraceLog",
    "format_trace",
    "read_trace_log",
]
