"""Unit tests for the telemetry layer: span trees, the metric registry,
the exposition format, trace-log export/rotation, the slow-query log —
and the regression pins for the queue-wait fix (durations populated on
cache-hit and overload exit paths, not only served queries)."""

import asyncio
import gc
import json
import time
import tracemalloc

import pytest

from repro.service import BLogService, Overloaded, QueryRequest, WorkerDied
from repro.service.telemetry import (
    JsonlTraceLog,
    MetricsRegistry,
    Telemetry,
    Tracer,
    format_trace,
    read_trace_log,
)
from repro.workloads import family_program


class FakeClock:
    def __init__(self, t: float = 100.0):
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def run(coro):
    return asyncio.run(coro)


# -- spans -------------------------------------------------------------------


class TestSpans:
    def test_nesting_parent_ids_and_intervals(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.trace("r1", program="family") as trace:
            with trace.span("outer") as outer:
                clock.advance(1.0)
                with trace.span("inner", detail=7) as inner:
                    clock.advance(2.0)
                clock.advance(0.5)
            trace.end(ok=True)

        assert trace.root.parent_id is None
        assert outer.parent_id == trace.root.span_id
        assert inner.parent_id == outer.span_id
        assert inner.attributes["detail"] == 7
        # intervals nest: child inside parent inside root
        assert outer.start_s >= trace.root.start_s
        assert inner.start_s >= outer.start_s
        assert inner.end_s <= outer.end_s <= trace.root.end_s
        assert inner.duration_s == pytest.approx(2.0)
        assert outer.duration_s == pytest.approx(3.5)
        assert trace.root.attributes["ok"] is True
        assert len(tracer.finished) == 1

    def test_clock_never_runs_backwards_within_a_tree(self):
        clock = FakeClock(50.0)
        tracer = Tracer(clock=clock)
        with tracer.trace("r1") as trace:
            with trace.span("a"):
                clock.t = 10.0  # OS clock hiccup: jumps backwards
            with trace.span("b"):
                clock.t = 9.0
        times = []
        for s in trace.spans:
            times.append(s.start_s)
            if s.end_s is not None:
                times.append(s.end_s)
        assert all(t >= 50.0 for t in times)
        for s in trace.spans:
            assert s.end_s >= s.start_s

    def test_span_at_clamps_into_parent(self):
        clock = FakeClock(100.0)
        tracer = Tracer(clock=clock)
        with tracer.trace("r1") as trace:
            clock.advance(1.0)
            span = trace.span_at("queue", 90.0, 101.5)  # starts before the root
            assert span.start_s == 100.0  # clamped up to the root start
            assert span.end_s == 101.5
            assert span.parent_id == trace.root.span_id
        assert trace.root.end_s >= span.end_s

    def test_exception_is_recorded_and_span_still_ends(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.trace("r1") as trace:
            with pytest.raises(ValueError):
                with trace.span("engine"):
                    raise ValueError("boom")
        (engine,) = trace.find("engine")
        assert engine.end_s is not None
        assert "ValueError: boom" in engine.attributes["error"]

    def test_end_is_idempotent_and_closes_dangling_spans(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.trace("r1") as trace:
            trace.span("left-open").__enter__()
            trace.end()
            trace.end()  # second call is a no-op
        assert tracer.completed == 1
        (dangling,) = trace.find("left-open")
        assert dangling.end_s is not None
        assert trace.root.end_s >= dangling.end_s


# -- metrics -----------------------------------------------------------------


class TestRegistry:
    def test_counter_gauge_semantics(self):
        reg = MetricsRegistry()
        c = reg.counter("blog_requests_total")
        c.inc()
        c.inc(2)
        assert reg.counter("blog_requests_total") is c  # same series on re-ask
        assert c.value == 3
        with pytest.raises(ValueError):
            c.inc(-1)
        g = reg.gauge("blog_pending")
        g.set(5)
        g.inc()
        g.dec(2)
        assert g.value == 4

    def test_histogram_exact_aggregates_bounded_reservoir(self):
        reg = MetricsRegistry()
        h = reg.histogram("blog_request_seconds", reservoir=8)
        for i in range(100):
            h.observe(float(i))
        assert h.count == 100
        assert h.sum == sum(range(100))
        assert h.min == 0.0 and h.max == 99.0
        assert len(h.reservoir) == 8  # bounded
        assert h.min <= h.quantile(0.5) <= h.max
        snap = h.snapshot()
        assert snap["count"] == 100 and snap["max"] == 99.0

    def test_histogram_time_observes_on_every_exit(self):
        h = MetricsRegistry().histogram("blog_checkpoint_seconds")
        with h.time() as timing:
            time.sleep(0.001)
        with pytest.raises(RuntimeError):
            with h.time():
                raise RuntimeError("boom")
        assert h.count == 2
        assert h.reservoir[0] == timing.elapsed_s >= 0.001
        assert h.reservoir[1] >= 0.0

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("blog_requests_total")
        with pytest.raises(ValueError):
            reg.gauge("blog_requests_total")

    def test_labels_create_distinct_series(self):
        reg = MetricsRegistry()
        reg.counter("blog_requests_engine_total", engine="blog").inc(2)
        reg.counter("blog_requests_engine_total", engine="cache").inc()
        assert reg.counter("blog_requests_engine_total", engine="blog").value == 2
        assert reg.counter("blog_requests_engine_total", engine="cache").value == 1

    def test_exposition_golden(self):
        reg = MetricsRegistry()
        reg.counter("blog_requests_total").inc(3)
        reg.counter("blog_requests_engine_total", engine="blog").inc(2)
        reg.counter("blog_requests_engine_total", engine="cache").inc()
        reg.gauge("blog_pending").set(1)
        reg.histogram("blog_request_seconds").observe(2.0)
        assert reg.expose() == (
            "# TYPE blog_pending gauge\n"
            "blog_pending 1\n"
            "# TYPE blog_request_seconds histogram\n"
            "blog_request_seconds_count 1\n"
            "blog_request_seconds_sum 2\n"
            'blog_request_seconds{q="0.5"} 2\n'
            'blog_request_seconds{q="0.95"} 2\n'
            "blog_request_seconds_max 2\n"
            "# TYPE blog_requests_engine_total counter\n"
            'blog_requests_engine_total{engine="blog"} 2\n'
            'blog_requests_engine_total{engine="cache"} 1\n'
            "# TYPE blog_requests_total counter\n"
            "blog_requests_total 3\n"
        )


# -- exports -----------------------------------------------------------------


class TestTraceLog:
    def _finish_trace(self, tracer, rid, clock):
        with tracer.trace(rid, program="family") as trace:
            with trace.span("engine"):
                clock.advance(0.01)
            trace.end(ok=True)
        return trace

    def test_jsonl_lines_parse_and_round_trip(self, tmp_path):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        path = str(tmp_path / "trace.jsonl")
        log = JsonlTraceLog(path)
        tracer.on_finish.append(log)
        self._finish_trace(tracer, "r1", clock)
        self._finish_trace(tracer, "r2", clock)
        log.close()
        spans = read_trace_log(path)
        assert [s["trace"] for s in spans] == ["r1", "r1", "r2", "r2"]
        roots = [s for s in spans if s["parent"] is None]
        assert [r["trace"] for r in roots] == ["r1", "r2"]
        for s in spans:
            assert s["end_s"] >= s["start_s"]
            assert s["duration_s"] == pytest.approx(s["end_s"] - s["start_s"])

    def test_rotation_keeps_backups(self, tmp_path):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        path = str(tmp_path / "trace.jsonl")
        log = JsonlTraceLog(path, max_bytes=600, backups=2)
        tracer.on_finish.append(log)
        for i in range(12):
            self._finish_trace(tracer, f"r{i}", clock)
        log.close()
        assert log.rotations >= 1
        assert (tmp_path / "trace.jsonl.1").exists()
        # every line in every generation is valid JSON
        for p in tmp_path.iterdir():
            for line in p.read_text().splitlines():
                json.loads(line)
        # the newest traces are in the live file, in order
        live = read_trace_log(path)
        assert live, "rotation must never lose the live file"

    def test_slow_query_log_dumps_span_tree(self):
        clock = FakeClock()
        seen = []
        telemetry = Telemetry(
            clock=clock, slow_query_s=0.5, slow_query_sink=seen.append
        )
        with telemetry.tracer.trace("fast"):
            clock.advance(0.1)
        with telemetry.tracer.trace("slow", program="family") as slow:
            with slow.span("engine", expansions=42):
                clock.advance(2.0)
            slow.end(ok=True)
        assert telemetry.slow_queries == 1
        assert len(seen) == 1
        text = seen[0]
        assert "trace slow" in text and "engine" in text and "expansions=42" in text
        assert "fast" not in text

    def test_format_trace_indents_children(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.trace("r1") as trace:
            with trace.span("lane-dispatch"):
                clock.advance(0.5)
                with trace.span("engine"):
                    clock.advance(1.0)
        lines = format_trace(trace).splitlines()
        assert lines[0].startswith("trace r1")
        assert lines[1].startswith("  lane-dispatch")
        assert lines[2].startswith("    engine")


# -- the queue-wait regression (satellite fix) -------------------------------


class TestDurationsOnEveryExitPath:
    """Cache-hit short-circuits and overload rejections must carry real
    measured durations, not zeros (the pre-fix behaviour recorded 0.0
    for every request that never reached a lane).  The outcome record is
    the request's span tree plus the registry series."""

    def test_cache_hit_records_wall_time_and_queue_wait(self):
        async def body():
            svc = BLogService(
                {"family": family_program()}, n_workers=2, backend="thread"
            )
            await svc.start()
            try:
                first = await svc.submit(
                    QueryRequest("family", "gf(sam, G)", session="s")
                )
                hit = await svc.submit(
                    QueryRequest("family", "gf(sam, G)", session="s")
                )
                registry = svc.telemetry.registry
                return (
                    first, hit, svc.telemetry.tracer.finished[-1],
                    registry.histogram("blog_request_seconds"),
                    registry.histogram("blog_queue_wait_seconds"),
                )
            finally:
                await svc.stop()

        first, hit, trace, total, wait = run(body())
        assert first.ok and hit.ok and hit.cached
        assert trace.root.attributes["cache_hit"]
        assert trace.root.duration_s > 0.0  # was 0.0 before the fix
        # the hit is the last observation of both histograms
        assert total.count == wait.count == 2
        hit_total, hit_wait = total.reservoir[-1], wait.reservoir[-1]
        assert hit_total > 0.0
        assert hit_wait > 0.0
        assert hit_total >= hit_wait
        assert hit.queue_wait_ms == pytest.approx(hit_wait * 1000.0)

    def test_overload_rejection_records_duration(self):
        async def body():
            svc = BLogService(
                {"family": family_program()},
                n_workers=1,
                max_pending=1,
                backend="thread",
            )
            await svc.start()
            try:
                svc.admission.acquire()  # occupy the whole bound
                with pytest.raises(Overloaded):
                    await svc.submit(QueryRequest("family", "gf(sam, G)"))
                svc.admission.release()
                return svc.stats(), svc.telemetry.tracer.finished[-1], svc.telemetry.registry
            finally:
                await svc.stop()

        stats, trace, registry = run(body())
        assert stats["rejected"] == 1
        assert stats["served"] == stats["errors"] == 0  # not a served request
        assert trace.root.attributes["outcome"] == "rejected"
        assert trace.root.attributes["ok"] is False
        assert trace.root.duration_s > 0.0
        # the rejection's duration also lands in the registry histogram
        hist = registry.histogram("blog_rejection_seconds")
        assert hist.count == 1
        assert 0.0 < hist.sum <= trace.root.duration_s

    def test_error_exit_paths_record_durations(self):
        async def body():
            svc = BLogService(
                {"family": family_program()}, n_workers=1, backend="thread"
            )
            await svc.start()
            try:
                bad_prog = await svc.submit(QueryRequest("nope", "gf(sam, G)"))
                bad_syntax = await svc.submit(QueryRequest("family", "gf(sam,"))
                return (
                    bad_prog, bad_syntax, list(svc.telemetry.tracer.finished),
                    svc.telemetry.registry.histogram("blog_request_seconds"),
                )
            finally:
                await svc.stop()

        bad_prog, bad_syntax, traces, total = run(body())
        assert not bad_prog.ok and not bad_syntax.ok
        assert len(traces) == 2
        assert all(not t.root.attributes["ok"] for t in traces)
        assert all(t.root.duration_s > 0.0 for t in traces)
        assert total.count == 2 and total.min > 0.0


# -- the outcome record is bounded, and stats() stays exact -------------------


class TestBoundedOutcomeRecord:
    #: requests that fill the tracer's 512-trace ring and every reservoir
    WARM = 700
    MORE = 3000
    #: traced-memory budget for MORE cache hits once warm; one retained
    #: record per request (~400 B each) would need ~1.2 MB
    BUDGET = 200_000

    def test_cache_hits_past_the_trace_ring_add_no_memory(self):
        async def body():
            svc = BLogService(
                {"family": family_program()}, n_workers=1, backend="thread"
            )
            await svc.start()
            tracemalloc.start()
            try:
                for _ in range(self.WARM):
                    assert (await svc.submit(QueryRequest("family", "gf(sam, G)"))).ok
                gc.collect()
                before = tracemalloc.get_traced_memory()[0]
                for _ in range(self.MORE):
                    assert (await svc.submit(QueryRequest("family", "gf(sam, G)"))).cached
                gc.collect()
                after = tracemalloc.get_traced_memory()[0]
                return after - before, svc.stats()
            finally:
                tracemalloc.stop()
                await svc.stop()

        grown, stats = run(body())
        assert stats["served"] == self.WARM + self.MORE
        assert grown < self.BUDGET, f"{grown} bytes retained by {self.MORE} requests"

    def test_stats_counts_stay_exact_past_the_reservoir(self, on_lane_query):
        hits = 600  # more observations than a histogram reservoir holds

        async def body():
            svc = BLogService(
                {"family": family_program()},
                n_workers=1,
                max_pending=1,
                degrade_pending=0,
                backend="thread",
            )
            await svc.start()
            try:
                for _ in range(1 + hits):  # one miss, then cache hits
                    await svc.submit(QueryRequest("family", "gf(sam, G)"))
                for _ in range(7):
                    await svc.submit(QueryRequest("nope", "gf(sam, G)"))
                svc.admission.acquire()  # occupy the whole bound
                for _ in range(5):
                    with pytest.raises(Overloaded):
                        await svc.submit(QueryRequest("family", "gf(sam, G)"))
                svc.admission.release()
                for _ in range(4):  # machine falls back to blog under load
                    await svc.submit(
                        QueryRequest("family", "gf(sam, G)", engine="machine", cache=False)
                    )

                died = set()

                def die_once(real, worker, msg):
                    if msg.session not in died:
                        died.add(msg.session)
                        raise WorkerDied("injected")
                    return real(worker, msg)

                on_lane_query(die_once)
                for i in range(3):  # each dies once, then replays
                    resp = await svc.submit(
                        QueryRequest("family", "gf(sam, G)", session=f"d{i}", cache=False)
                    )
                    assert resp.ok and resp.retries == 1
                return svc.stats()
            finally:
                await svc.stop()

        stats = run(body())
        assert stats["served"] == 1 + hits + 4 + 3
        assert stats["errors"] == 7
        assert stats["rejected"] == 5
        assert stats["cache_hits"] == hits
        assert stats["retries"] == 3
        assert stats["degraded"] == 4
        assert stats["by_engine"] == {"cache": hits, "blog": 1 + 7 + 4 + 3}

    def test_latency_figures_cover_served_requests_only(self, on_lane_query):
        async def body():
            svc = BLogService(
                {"family": family_program()}, n_workers=2, backend="thread"
            )
            await svc.start()
            try:
                def stall(real, worker, msg):
                    if msg.session != "default":
                        time.sleep(0.3)
                    return real(worker, msg)

                on_lane_query(stall)
                for i in range(3):  # three slow failures: deadline misses
                    resp = await svc.submit(
                        QueryRequest("family", "gf(sam, G)", session=f"t{i}",
                                     cache=False, timeout=0.1)
                    )
                    assert not resp.ok
                await asyncio.sleep(0.4)  # let the stuck threads finish
                assert (await svc.submit(QueryRequest("family", "gf(sam, G)"))).ok
                return svc.stats()
            finally:
                await svc.stop()

        stats = run(body())
        assert stats["served"] == 1 and stats["errors"] == 3
        # with the three 100 ms failures counted, every figure would be >= 100
        for figure in ("p50_ms", "p95_ms", "mean_ms"):
            assert stats[figure] < 100.0, figure
