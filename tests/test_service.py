"""The serving layer: routing, caching, backpressure, failure handling.

Covers the contract end to end: session affinity (one session, one
lane, one local store, learning visible across a session's queries),
cache hit → session merge → generation-stale miss, per-query deadline
with session abandonment, one retry on worker death, ``Overloaded``
rejection at the admission bound, the TCP line-JSON endpoint, and a
200-query mixed-session load test with zero lost or duplicated
answers.
"""

import asyncio
import json
import math
import os
import signal
import time

import pytest
from typing import ClassVar

from repro.core import BLogConfig
from repro.logic.parser import parse_query
from repro.service import (
    AdmissionController,
    AnswerCache,
    BLogService,
    LifecycleState,
    NotServing,
    Overloaded,
    QueryRequest,
    WorkerDied,
    canonical_query_text,
    percentile,
)
from repro.workloads import family_program, nrev_program


def run(coro):
    return asyncio.run(coro)


# CI runs this whole module once per backend (BLOG_SERVICE_BACKEND in the
# matrix); tests that reach into thread-lane internals pin backend="thread".
BACKEND = os.environ.get("BLOG_SERVICE_BACKEND", "thread")


def make_service(**kw):
    kw.setdefault("n_workers", 2)
    kw.setdefault("backend", BACKEND)
    return BLogService({"family": family_program()}, **kw)


async def with_service(body, **kw):
    svc = make_service(**kw)
    await svc.start()
    try:
        return await body(svc)
    finally:
        await svc.stop()


# -- unit pieces -------------------------------------------------------------


class TestCanonicalQuery:
    def test_variable_names_do_not_matter(self):
        a = canonical_query_text(parse_query("gf(sam, G)"))
        b = canonical_query_text(parse_query("gf(sam, Who)"))
        assert a == b

    def test_sharing_between_goals_is_preserved(self):
        shared = canonical_query_text(parse_query("f(X, Y), f(Y, Z)"))
        unshared = canonical_query_text(parse_query("f(X, Y), f(W, Z)"))
        assert shared != unshared

    def test_constants_matter(self):
        assert canonical_query_text(parse_query("gf(sam, G)")) != canonical_query_text(
            parse_query("gf(curt, G)")
        )

    def test_anonymous_variables_get_a_distinct_cache_line(self):
        from repro.service import cache_key

        named = cache_key("p", parse_query("gf(sam, G)"), None)
        anon = cache_key("p", parse_query("gf(sam, _)"), None)
        assert named != anon  # same canonical text, different bindings reported


class TestAnswerCache:
    def test_put_get_roundtrip(self):
        c = AnswerCache(capacity=4)
        c.put(("p", "q", None), 0, [{"X": "a"}])
        assert c.get(("p", "q", None), 0) == [{"X": "a"}]
        assert c.hits == 1

    def test_generation_mismatch_evicts(self):
        c = AnswerCache(capacity=4)
        c.put(("p", "q", None), 0, [{"X": "a"}])
        assert c.get(("p", "q", None), 1) is None
        assert c.stale == 1
        assert len(c) == 0

    def test_lru_eviction(self):
        c = AnswerCache(capacity=2)
        c.put(("p", "a", None), 0, [])
        c.put(("p", "b", None), 0, [])
        c.get(("p", "a", None), 0)  # refresh a
        c.put(("p", "c", None), 0, [])  # evicts b
        assert c.get(("p", "b", None), 0) is None
        assert c.get(("p", "a", None), 0) is not None

    def test_invalidate_program(self):
        c = AnswerCache(capacity=8)
        c.put(("p", "a", None), 0, [])
        c.put(("r", "a", None), 0, [])
        assert c.invalidate_program("p") == 1
        assert len(c) == 1


class TestAdmission:
    def test_bound_enforced(self):
        adm = AdmissionController(max_pending=2)
        adm.acquire()
        adm.acquire()
        with pytest.raises(Overloaded):
            adm.acquire()
        adm.release()
        adm.acquire()  # slot freed
        assert adm.rejected == 1

    def test_release_without_acquire(self):
        with pytest.raises(RuntimeError):
            AdmissionController(max_pending=1).release()


class TestPercentile:
    def test_interpolation(self):
        assert percentile([0.0, 10.0], 50.0) == 5.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 95.0) == pytest.approx(3.85)
        assert percentile([], 95.0) == 0.0

    def test_single_sample_any_q(self):
        for q in (0.0, 37.2, 50.0, 95.0, 100.0):
            assert percentile([7.5], q) == 7.5

    def test_unsorted_input(self):
        assert percentile([10.0, 0.0], 50.0) == 5.0
        assert percentile([3.0, 1.0, 4.0, 2.0], 0.0) == 1.0
        assert percentile([3.0, 1.0, 4.0, 2.0], 100.0) == 4.0

    def test_q_extremes_are_min_and_max(self):
        xs = [5.0, 1.0, 9.0, 3.0]
        assert percentile(xs, 0.0) == 1.0
        assert percentile(xs, 100.0) == 9.0  # exactly the max, no index error

    def test_out_of_range_q_clamps(self):
        xs = [1.0, 2.0, 3.0]
        # a negative q must clamp to the min — int(pos) truncation on a
        # negative position used to wrap around to xs[-1] (the max!)
        assert percentile(xs, -5.0) == 1.0
        assert percentile(xs, 150.0) == 3.0

    def test_nan_samples_are_dropped(self):
        nan = float("nan")
        assert percentile([nan, 1.0, nan, 3.0], 50.0) == 2.0
        assert percentile([nan, 42.0], 95.0) == 42.0
        assert percentile([nan, nan], 50.0) == 0.0  # all-NaN == empty
        for q in (0.0, 50.0, 95.0, 100.0):
            assert not math.isnan(percentile([nan, 1.0, 2.0], q))


# -- the service itself ------------------------------------------------------


class TestBasicServing:
    def test_answers_match_engine(self):
        async def body(svc):
            return await svc.submit(QueryRequest("family", "gf(sam, G)"))

        resp = run(with_service(body))
        assert resp.ok
        assert sorted(a["G"] for a in resp.answers) == ["den", "doug"]
        assert resp.engine == "blog" and not resp.cached

    def test_unknown_program_and_engine(self):
        async def body(svc):
            bad_prog = await svc.submit(QueryRequest("nope", "gf(sam, G)"))
            bad_eng = await svc.submit(
                QueryRequest("family", "gf(sam, G)", engine="warp")
            )
            return bad_prog, bad_eng

        bad_prog, bad_eng = run(with_service(body))
        assert not bad_prog.ok and "unknown program" in bad_prog.error
        assert not bad_eng.ok and "unknown engine" in bad_eng.error

    def test_syntax_error_is_a_response_not_a_crash(self):
        async def body(svc):
            return await svc.submit(QueryRequest("family", "gf(sam,"))

        resp = run(with_service(body))
        assert not resp.ok and "syntax error" in resp.error

    def test_non_decimal_digit_is_a_syntax_error(self):
        """``²`` is a digit to ``str.isdigit`` but not to ``int()``.  It used
        to escape submit as a bare ValueError, with no error counted."""

        async def body(svc):
            resp = await svc.submit(QueryRequest("family", "f(², X)"))
            return resp, svc.stats()["errors"]

        resp, errors = run(with_service(body))
        assert not resp.ok and "syntax error" in resp.error
        assert "unexpected character '²'" in resp.error
        assert errors == 1

    def test_procpool_engine(self):
        async def body(svc):
            return await svc.submit(
                QueryRequest("family", "gf(sam, G)", engine="procpool")
            )

        resp = run(with_service(body))
        assert resp.ok
        assert sorted(a["G"] for a in resp.answers) == ["den", "doug"]


class TestSessionAffinity:
    def test_same_session_same_lane_and_state(self):
        async def body(svc):
            await svc.submit(QueryRequest("family", "gf(sam, G)", session="alice"))
            await svc.submit(
                QueryRequest("family", "gf(curt, G)", session="alice")
            )
            state = svc.router.get("family", "alice")
            return state, svc.router.lane_for("alice")

        state, lane = run(with_service(body))
        assert state is not None
        assert state.queries == 2
        assert state.lane == lane  # placement never moved

    def test_learning_is_visible_within_a_session(self):
        """The second query of a session runs under weights the first
        one learned (strong local updates); a fresh session is cold."""

        async def body(svc):
            cold = await svc.submit(
                QueryRequest("family", "gf(sam, G)", session="warmup")
            )
            warm = await svc.submit(
                QueryRequest(
                    "family", "gf(sam, G)", session="warmup", max_solutions=1
                )
            )
            fresh = await svc.submit(
                QueryRequest(
                    "family", "gf(sam, G)", session="newcomer",
                    max_solutions=1, cache=False,
                )
            )
            return cold, warm, fresh

        cold, warm, fresh = run(with_service(body))
        assert cold.ok and warm.ok and fresh.ok
        assert not warm.cached and not fresh.cached
        assert warm.expansions < fresh.expansions

    def test_distinct_sessions_have_distinct_local_stores(self):
        async def body(svc):
            await svc.submit(
                QueryRequest("family", "gf(sam, G)", session="a", cache=False)
            )
            await svc.submit(
                QueryRequest("family", "gf(sam, G)", session="b", cache=False)
            )
            engines = [
                svc.pool.backend.workers[svc.router.lane_for(s)].sessions[("family", s)][0]
                for s in ("a", "b")
            ]
            return engines, svc.programs["family"].global_store

        # thread-pinned: pokes the lane workers' local stores, which live
        # in the lane child under the process backend
        (ea, eb), global_store = run(with_service(body, backend="thread"))
        assert ea.store is not eb.store
        # neither session has merged: the global store (and so the lane
        # mirror each session copied) is untouched
        assert len(global_store) == 0
        assert len(ea.sessions.global_store) == len(eb.sessions.global_store) == 0


class TestCacheLifecycle:
    def test_hit_then_merge_then_stale_miss(self):
        async def body(svc):
            first = await svc.submit(
                QueryRequest("family", "gf(sam, G)", session="s1")
            )
            renamed = await svc.submit(
                QueryRequest("family", "gf(sam, Who)", session="s1")
            )
            gen_before = svc.programs["family"].global_store.generation
            report = await svc.end_session("family", "s1")
            gen_after = svc.programs["family"].global_store.generation
            third = await svc.submit(
                QueryRequest("family", "gf(sam, G)", session="s2")
            )
            fourth = await svc.submit(
                QueryRequest("family", "gf(sam, G)", session="s3")
            )
            return first, renamed, report, gen_before, gen_after, third, fourth, svc

        first, renamed, report, g0, g1, third, fourth, svc = run(with_service(body))
        assert first.ok and not first.cached
        assert renamed.cached  # canonical key: variable names don't matter
        # ...and the cached answers come back under the *asker's* names
        assert sorted(a["Who"] for a in renamed.answers) == ["den", "doug"]
        assert report is not None and report.adopted > 0
        assert g1 > g0  # the merge moved the weights
        assert not third.cached  # stale entry evicted, recomputed
        assert fourth.cached  # refilled under the new generation
        assert svc.cache.stale >= 1

    def test_truncated_answer_is_reported_and_not_cached(self):
        async def body(svc):
            first = await svc.submit(QueryRequest("family", "gf(sam, G)", session="s1"))
            again = await svc.submit(QueryRequest("family", "gf(sam, G)", session="s1"))
            return first, again, svc

        first, again, svc = run(
            with_service(body, config=BLogConfig(max_expansions=2))
        )
        assert first.ok and not first.complete
        assert first.to_dict()["complete"] is False
        assert not again.cached and not again.complete
        assert svc.telemetry.registry.counter("blog_incomplete_total").value == 2
        assert len(svc.cache) == 0

    def test_end_session_unknown_session_is_none(self):
        async def body(svc):
            return await svc.end_session("family", "ghost")

        assert run(with_service(body)) is None


class TestFailureHandling:
    """Thread-pinned: these tests patch
    :class:`~repro.core.procpool.LaneWorker` (``on_lane_query``), whose
    instances run in-process only for thread lanes (process lanes run
    theirs in the lane child — their failure modes are exercised by
    test_service_faults.py)."""

    def test_timeout_fails_request_and_abandons_session(self, monkeypatch, on_lane_query):
        async def body(svc):
            def slow(real, worker, msg):
                time.sleep(0.5)
                return real(worker, msg)

            on_lane_query(slow)
            resp = await svc.submit(
                QueryRequest("family", "gf(sam, G)", session="slowpoke", timeout=0.05)
            )
            monkeypatch.undo()
            follow_up = await svc.submit(
                QueryRequest("family", "gf(curt, G)", session="slowpoke")
            )
            return resp, follow_up, svc.router.get("family", "slowpoke"), svc.stats()

        resp, follow_up, state, stats = run(with_service(body, backend="thread"))
        assert not resp.ok and "deadline" in resp.error
        assert stats["lane_resets"] == 1  # a timeout resets the lane
        assert follow_up.ok  # a fresh session state served the next query
        assert state is not None and state.queries == 1  # reopened, not reused

    def test_worker_death_is_retried_once(self, on_lane_query):
        async def body(svc):
            deaths = {"n": 0}

            def flaky(real, worker, msg):
                if deaths["n"] == 0:
                    deaths["n"] += 1
                    raise WorkerDied("simulated crash")
                return real(worker, msg)

            on_lane_query(flaky)
            return await svc.submit(QueryRequest("family", "gf(sam, G)"))

        resp = run(with_service(body, backend="thread"))
        assert resp.ok
        assert resp.retries == 1
        assert sorted(a["G"] for a in resp.answers) == ["den", "doug"]

    def test_second_death_fails_the_request(self, on_lane_query):
        async def body(svc):
            def doomed(real, worker, msg):
                raise WorkerDied("persistent crash")

            on_lane_query(doomed)
            return await svc.submit(QueryRequest("family", "gf(sam, G)"))

        resp = run(with_service(body, backend="thread"))
        assert not resp.ok
        assert "worker died twice" in resp.error
        assert resp.retries == 1

    def test_overloaded_rejection_when_queue_full(self, on_lane_query):
        async def body(svc):
            def slow(real, worker, msg):
                time.sleep(0.2)
                return {
                    "ok": True, "answers": [], "expansions": None, "complete": True,
                    "engine_attrs": {},
                }

            on_lane_query(slow)
            reqs = [
                svc.submit(
                    QueryRequest("family", "gf(sam, G)", session=f"c{i}")
                )
                for i in range(5)
            ]
            return await asyncio.gather(*reqs, return_exceptions=True)

        results = run(with_service(body, n_workers=1, max_pending=2, backend="thread"))
        rejected = [r for r in results if isinstance(r, Overloaded)]
        served = [r for r in results if not isinstance(r, Exception)]
        assert len(rejected) == 3 and len(served) == 2
        assert all(r.ok for r in served)

    def test_machine_degrades_to_blog_under_load(self):
        async def body(svc):
            return await svc.submit(
                QueryRequest("family", "gf(sam, G)", engine="machine")
            )

        resp = run(with_service(body, degrade_pending=0, backend="thread"))
        assert resp.ok
        assert resp.engine == "blog" and resp.degraded

    def test_machine_runs_when_unloaded(self):
        async def body(svc):
            return await svc.submit(
                QueryRequest("family", "gf(sam, G)", engine="machine")
            )

        resp = run(with_service(body, backend="thread"))
        assert resp.ok and resp.engine == "machine" and not resp.degraded
        assert sorted(a["G"] for a in resp.answers) == ["den", "doug"]


class TestTcpEndpoint:
    def test_query_merge_stats_roundtrip(self):
        async def body():
            svc = make_service()
            server = await svc.serve_tcp("127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)

            async def ask(msg):
                writer.write((json.dumps(msg) + "\n").encode())
                await writer.drain()
                return json.loads(await reader.readline())

            q1 = await ask(
                {"op": "query", "id": "r1", "program": "family",
                 "query": "gf(sam, G)", "session": "tcp1"}
            )
            q2 = await ask(
                {"program": "family", "query": "gf(sam, G)", "session": "tcp1"}
            )  # op defaults to query
            merged = await ask(
                {"op": "end_session", "program": "family", "session": "tcp1"}
            )
            stats = await ask({"op": "stats"})
            bad = await ask({"op": "nope"})
            garbage_reply = None
            writer.write(b"this is not json\n")
            await writer.drain()
            garbage_reply = json.loads(await reader.readline())
            writer.close()
            await writer.wait_closed()
            await svc.stop()
            return q1, q2, merged, stats, bad, garbage_reply

        q1, q2, merged, stats, bad, garbage = run(body())
        assert q1["ok"] and q1["id"] == "r1"
        assert sorted(a["G"] for a in q1["answers"]) == ["den", "doug"]
        assert q2["ok"] and q2["cached"]
        assert merged["ok"] and merged["merged"]["adopted"] > 0
        assert stats["ok"] and stats["stats"]["served"] >= 2
        assert not bad["ok"]
        assert not garbage["ok"] and "bad json" in garbage["error"]

    def test_oversized_line_gets_error_reply_and_connection_survives(self):
        """A request line over the 64 KiB line limit is answered with an
        error and skipped; later lines on the same connection are served
        (it used to drop the connection with no reply and no metric)."""

        async def body():
            svc = make_service()
            server = await svc.serve_tcp("127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            replies = []
            # one huge line, then one just past the limit, then a good one
            for line in (
                json.dumps({"query": "gf(sam, G)", "pad": "x" * 100_000}),
                "y" * 70_000,
                json.dumps({"program": "family", "query": "gf(sam, G)"}),
            ):
                writer.write((line + "\n").encode())
                await writer.drain()
                replies.append(json.loads(await reader.readline()))
            writer.close()
            await writer.wait_closed()
            oversized = svc.telemetry.registry.counter("blog_oversized_lines_total").value
            await svc.stop()
            return replies, oversized

        (huge, long, good), oversized = run(body())
        assert not huge["ok"] and "request line over" in huge["error"]
        assert not long["ok"] and "request line over" in long["error"]
        assert good["ok"] and sorted(a["G"] for a in good["answers"]) == ["den", "doug"]
        assert oversized == 2

    def test_non_decimal_digit_gets_a_reply_and_connection_survives(self):
        """A query holding ``²`` used to kill the connection's handler: the
        client got no reply, and every later line read ``b''``."""

        async def body():
            svc = make_service()
            server = await svc.serve_tcp("127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            replies = []
            for query in ("f(², X)", "gf(sam, G)"):
                writer.write((json.dumps({"program": "family", "query": query}) + "\n").encode())
                await writer.drain()
                replies.append(await asyncio.wait_for(reader.readline(), 10))
            writer.close()
            await writer.wait_closed()
            await svc.stop()
            return replies

        bad, good = run(body())
        assert bad and good, "the connection closed without a reply"
        bad, good = json.loads(bad), json.loads(good)
        assert not bad["ok"] and "syntax error" in bad["error"]
        assert good["ok"] and sorted(a["G"] for a in good["answers"]) == ["den", "doug"]

    @pytest.mark.parametrize("how", ["stop", "drain"])
    def test_stop_with_idle_connection_is_quiet(self, capfd, how):
        """stop() closes the connections it still holds and waits for
        their handlers; a drain leaves them open until the loop winds
        down and cancels them.  Either way nothing reaches the loop's
        exception handler or stderr."""
        reported = []

        async def body():
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, ctx: reported.append(ctx)
            )
            svc = make_service()
            server = await svc.serve_tcp("127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b'{"op": "health"}\n')
            await writer.drain()
            assert json.loads(await reader.readline())["ok"]
            # the connection is still open and idle
            hung_up = None
            if how == "drain":
                await svc.lifecycle.drain(timeout=5.0)  # keeps the connection
            else:
                await svc.stop()
                try:
                    hung_up = await asyncio.wait_for(reader.read(), 5) == b""
                except asyncio.TimeoutError:
                    hung_up = False
            # cancel whatever still runs, as asyncio.run does on the way out
            for task in asyncio.all_tasks():
                if task is not asyncio.current_task():
                    task.cancel()
            await asyncio.sleep(0.1)
            writer.close()
            await writer.wait_closed()
            return hung_up

        hung_up = run(body())
        assert reported == []
        assert capfd.readouterr().err == ""
        if how == "stop":
            assert hung_up, "stop() left the client connection open"


class TestLifecycle:
    """PR 5: graceful lifecycle — health/ready, drain, signal wiring."""

    def test_ready_tracks_lifecycle_states(self):
        async def body():
            svc = make_service()
            states = [(svc.lifecycle.state, svc.lifecycle.ready)]
            await svc.start()
            states.append((svc.lifecycle.state, svc.lifecycle.ready))
            await svc.lifecycle.drain(timeout=5.0)
            states.append((svc.lifecycle.state, svc.lifecycle.ready))
            return states

        before, serving, stopped = run(body())
        assert before == (LifecycleState.STARTING, False)
        assert serving == (LifecycleState.SERVING, True)
        assert stopped == (LifecycleState.STOPPED, False)

    def test_recovering_state_visited_with_data_dir(self, tmp_path):
        async def body():
            svc = make_service(data_dir=tmp_path / "weights")
            await svc.start()
            try:
                history = list(svc.lifecycle.history)
                durability = svc.stats()["durability"]
            finally:
                await svc.stop()
            return history, durability

        history, durability = run(body())
        assert "recovering" in history and "serving" in history
        assert durability["family"]["seq"] == 0  # fresh dir: nothing to replay

    def test_drain_merges_open_sessions_then_rejects_work(self):
        async def body():
            svc = make_service()
            await svc.start()
            resp = await svc.submit(
                QueryRequest("family", "gf(sam, G)", session="open")
            )
            assert resp.ok
            report = await svc.lifecycle.drain(timeout=5.0)
            with pytest.raises(NotServing):
                await svc.submit(QueryRequest("family", "gf(sam, G)"))
            return report

        report = run(body())
        assert report["sessions_merged"] >= 1
        assert report["pending_at_exit"] == 0

    def test_drain_completes_inflight_queries(self):
        async def body():
            svc = make_service()
            await svc.start()
            inflight = [
                asyncio.ensure_future(
                    svc.submit(
                        QueryRequest("family", "gf(sam, G)", session=f"s{i}")
                    )
                )
                for i in range(4)
            ]
            await asyncio.sleep(0)  # let the submissions reach the lanes
            report = await svc.lifecycle.drain(timeout=10.0)
            replies = await asyncio.gather(*inflight)
            return report, replies

        report, replies = run(body())
        assert all(r.ok for r in replies)  # admitted work survived the drain
        assert report["cancelled"] == 0

    def test_drain_is_idempotent(self):
        async def body():
            svc = make_service()
            await svc.start()
            first, second = await asyncio.gather(
                svc.lifecycle.drain(timeout=5.0),
                svc.lifecycle.drain(timeout=5.0),
            )
            return first, second

        first, second = run(body())
        assert first == second

    def test_end_session_reply_carries_generation(self):
        async def body(svc):
            resp = await svc.submit(
                QueryRequest("family", "gf(sam, G)", session="gen")
            )
            assert resp.ok
            return await svc.end_session("family", "gen")

        report = run(with_service(body))
        assert report is not None and report.generation > 0

    def test_tcp_health_ready_and_draining_reply(self):
        async def body():
            svc = make_service()
            server = await svc.serve_tcp("127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)

            async def ask(msg):
                writer.write((json.dumps(msg) + "\n").encode())
                await writer.drain()
                return json.loads(await reader.readline())

            health = await ask({"op": "health"})
            ready = await ask({"op": "ready"})
            await svc.lifecycle.drain(timeout=5.0)
            # the established connection outlives the listener: replies
            # for draining-time requests still flow back
            rejected = await ask(
                {"op": "query", "program": "family", "query": "gf(sam, G)"}
            )
            stopped = await ask({"op": "health"})
            writer.close()
            return health, ready, rejected, stopped

        health, ready, rejected, stopped = run(body())
        assert health["ok"] and health["state"] == "serving"
        assert ready["ok"] and ready["ready"]
        assert not rejected["ok"] and rejected["draining"]
        assert stopped["state"] == "stopped" and not stopped["ready"]

    def test_sigterm_triggers_drain(self):
        async def body():
            svc = make_service()
            await svc.start()
            installed = svc.lifecycle.install_signal_handlers(
                asyncio.get_running_loop()
            )
            try:
                if not installed:  # platform without add_signal_handler
                    await svc.stop()
                    return None
                os.kill(os.getpid(), signal.SIGTERM)
                await asyncio.wait_for(svc.lifecycle.terminated.wait(), 30.0)
            finally:
                svc.lifecycle.remove_signal_handlers()
                if svc.lifecycle.state is not LifecycleState.STOPPED:
                    await svc.stop()
            return svc.lifecycle.state

        state = run(body())
        assert state is None or state is LifecycleState.STOPPED


class TestLoadAcceptance:
    """The issue's acceptance bar: ≥200 mixed-session queries, zero
    lost/duplicated answers, latency + hit-rate reported, cache
    invalidated by a session merge."""

    QUERIES: ClassVar[dict] = {
        "family": {
            "gf(sam, G)": {"den", "doug"},
            "gf(curt, G)": {"john"},
            "f(sam, Y)": {"larry"},
            "f(larry, Y)": {"den", "doug"},
        },
    }

    def test_200_query_closed_loop(self):
        programs = {"family": family_program(), "nrev": nrev_program()}
        nrev_expected = "[e, d, c, b, a]"
        total = 200
        clients = 8
        plan = []  # (program, query, session, expected answer multiset)
        fam_items = list(self.QUERIES["family"].items())
        for i in range(total):
            session = f"sess{i % 10}"
            if i % 5 == 4:
                plan.append(
                    ("nrev", "nrev([a,b,c,d,e], R)", session,
                     frozenset([nrev_expected]))
                )
            else:
                q, expect = fam_items[i % len(fam_items)]
                plan.append(("family", q, session, frozenset(expect)))

        async def body():
            svc = BLogService(
                programs, n_workers=4, max_pending=256, backend=BACKEND
            )
            await svc.start()
            queue = asyncio.Queue()
            for i, item in enumerate(plan):
                queue.put_nowait((f"req{i}", item))
            responses = {}

            async def client():
                while True:
                    try:
                        rid, (prog, q, sess, _) = queue.get_nowait()
                    except asyncio.QueueEmpty:
                        return
                    responses[rid] = await svc.submit(
                        QueryRequest(prog, q, session=sess, request_id=rid)
                    )

            await asyncio.gather(*[client() for _ in range(clients)])

            # demonstrate invalidation: a cached family query goes stale
            # after its session merges
            probe = QueryRequest("family", "gf(sam, G)", session="sess0")
            before = await svc.submit(probe)
            merge = await svc.end_session("family", "sess0")
            after = await svc.submit(
                QueryRequest("family", "gf(sam, G)", session="sess1")
            )
            stats = svc.stats()
            await svc.stop()
            return responses, before, merge, after, stats

        responses, before, merge, after, stats = run(body())

        # zero lost, zero duplicated requests
        assert len(responses) == total
        assert sorted(responses) == sorted(f"req{i}" for i in range(total))

        # every answer set exact — nothing lost or duplicated inside a reply
        for i, (prog, q, sess, expect) in enumerate(plan):
            resp = responses[f"req{i}"]
            assert resp.ok, f"req{i} failed: {resp.error}"
            if prog == "family":
                got = [a["G" if "G)" in q else "Y"] for a in resp.answers]
            else:
                got = [a["R"] for a in resp.answers]
            assert len(got) == len(set(got)), f"req{i} duplicated answers: {got}"
            assert set(got) == set(expect), f"req{i} wrong answers: {got}"

        # the merge moved weights and invalidated the cached entry
        assert before.cached
        assert merge is not None and merge.adopted + merge.averaged > 0
        assert not after.cached

        # the report the issue asks for
        assert stats["served"] >= total
        assert stats["errors"] == 0 and stats["rejected"] == 0
        assert stats["cache_hit_rate"] > 0.5  # closed loop re-asks hot queries
        assert stats["p50_ms"] >= 0.0 and stats["p95_ms"] >= stats["p50_ms"]
        print(
            f"\nload: served={stats['served']} qps={stats['throughput_qps']:.0f} "
            f"p50={stats['p50_ms']:.2f}ms p95={stats['p95_ms']:.2f}ms "
            f"hit_rate={stats['cache_hit_rate']:.2f}"
        )
