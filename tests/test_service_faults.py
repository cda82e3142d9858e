"""Fault injection against the process lane backend.

These are the tests that earn the process backend its failure-handling
claims, with real SIGKILLs instead of monkeypatched exceptions:

* a lane subprocess killed *mid-query* is respawned and the in-flight
  query replayed exactly once, transparently (``resp.ok``,
  ``retries == 1``, full answer set);
* a 200-query mixed-session load survives two kills with zero lost and
  zero duplicated answers;
* a session whose lane child died is abandoned — its local learning is
  *never* merged into the global store (§5's conservative contract
  extended to crashes);
* a hung child (deadline missed) is killed and respawned, and the lane
  serves the very next query;
* a SIGKILLed *server* leaves no lane child running (under both the
  ``fork`` and the ``spawn`` start method).

SIGKILL timing is inherently racy (the victim query may finish before
the signal lands), so the mid-query scenarios check the kill actually
landed in-flight and re-run with a fresh session when it did not,
bounded by a fixed attempt budget.
"""

import asyncio
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core import BLogConfig
from repro.service import BLogService, QueryRequest, read_trace_log
from repro.workloads import family_program, nqueens_program, nrev_program

pytestmark = pytest.mark.skipif(
    os.name != "posix", reason="SIGKILL fault injection needs POSIX"
)

# nqueens(5): a quick query that a recovered lane must serve.  10
# solutions.
NQUEENS_ANSWERS = 10
# the victim of a kill or a missed deadline: nqueens(7) runs for more
# than a second of engine time, so a kill 0.2 s in, or a 50 ms deadline,
# always lands while it executes.  40 solutions.
VICTIM_N, VICTIM_ANSWERS = 7, 40


def run(coro):
    return asyncio.run(coro)


async def make_service(programs=None, **kw):
    kw.setdefault("n_workers", 2)
    kw.setdefault("backend", "process")
    svc = BLogService(programs or {"family": family_program()}, **kw)
    await svc.start()
    return svc


def kill_lane_child(svc: BLogService, lane: int) -> None:
    """SIGKILL a lane's subprocess and wait until it is truly dead."""
    proc = svc.pool.backend.children[lane].proc
    os.kill(proc.pid, signal.SIGKILL)
    proc.join(timeout=5.0)
    assert not proc.is_alive()


def total_respawns(svc: BLogService) -> int:
    return sum(lane["respawns"] for lane in svc.pool.lane_stats())


class TestKillMidQuery:
    def test_sigkill_is_retried_once_transparently(self):
        """Kill the lane child while a query is executing in it: the
        service must respawn the child, replay the query against a
        freshly opened session, and answer as if nothing happened.

        The victim is 7-queens, which runs for more than a second of
        engine time in the child, and a first query of the session has
        already loaded the program and opened the session there, so
        the kill 0.2 s after submitting always lands mid-query."""
        session = "killme"

        async def body():
            svc = await make_service(
                {"queens": nqueens_program(VICTIM_N)}, config=BLogConfig(max_depth=1024)
            )
            try:
                warm = await svc.submit(QueryRequest(
                    "queens", "noattack(1, [], 1)", session=session, cache=False
                ))
                assert warm.ok and len(warm.answers) == 1
                lane = svc.router.lane_for(session)
                task = asyncio.ensure_future(svc.submit(QueryRequest(
                    "queens", "queens(Qs)", session=session, cache=False,
                    request_id=session,
                )))
                await asyncio.sleep(0.2)
                assert not task.done(), "the victim finished before the kill"
                kill_lane_child(svc, lane)
                resp = await task
                traces = [
                    t for t in svc.telemetry.tracer.finished
                    if t.trace_id == resp.request_id
                ]
                registry = svc.telemetry.registry
                counters = {
                    "resets": registry.counter("blog_lane_resets_total").value,
                    "retries": registry.counter("blog_retries_total").value,
                }
                return resp, lane, svc.pool.lane_stats(), svc.stats(), traces, counters
            finally:
                await svc.stop()

        resp, lane, lanes, stats, traces, counters = run(body())
        assert resp.ok, f"replayed query failed: {resp.error}"
        assert resp.retries == 1  # exactly one transparent replay
        assert len(resp.answers) == VICTIM_ANSWERS
        boards = [a["Qs"] for a in resp.answers]
        assert len(set(boards)) == VICTIM_ANSWERS  # no duplicated answers
        assert lanes[lane]["respawns"] >= 1
        assert stats["lane_resets"] >= 1

        # the span tree tells the whole story: one root span for the
        # victim request, exactly one replay under it, and the respawn
        # window recorded as a span of its own
        assert len(traces) == 1, "exactly one finished trace for the victim"
        trace = traces[0]
        roots = [s for s in trace.spans if s.parent_id is None]
        assert len(roots) == 1 and roots[0].name == "request"
        replays = trace.find("replay")
        assert len(replays) == 1, "exactly one replay span"
        respawns = trace.find("respawn")
        assert len(respawns) == 1, "exactly one respawn span"
        engines = trace.find("engine")
        assert len(engines) == 2  # killed attempt + successful replay
        assert trace.root.attributes["retries"] == 1
        # counters agree with the spans — each incremented exactly once
        assert counters == {"resets": 1, "retries": 1}

    @pytest.mark.slow
    def test_200_query_load_survives_two_kills(self, tmp_path):
        """The acceptance bar under fire: a mixed-session closed loop
        with two SIGKILLs mid-load loses nothing and duplicates
        nothing — and the JSONL trace log accounts for every request:
        one root span each, replay spans matching the replay counter,
        metric totals equal to per-request span counts."""
        programs = {"family": family_program(), "nrev": nrev_program()}
        fam = {
            "gf(sam, G)": {"den", "doug"},
            "gf(curt, G)": {"john"},
            "f(sam, Y)": {"larry"},
            "f(larry, Y)": {"den", "doug"},
        }
        nrev_expected = "[e, d, c, b, a]"
        total = 200
        plan = []
        fam_items = list(fam.items())
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

        # CI exports BLOG_FAULTS_TRACE_LOG so a failing run leaves the
        # trace log behind as a build artifact; locally it lands in tmp
        trace_log = os.environ.get(
            "BLOG_FAULTS_TRACE_LOG", str(tmp_path / "faults-trace.jsonl")
        )

        async def body():
            svc = await make_service(
                programs, n_workers=2, max_pending=256, trace_log=trace_log
            )
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
                        QueryRequest(
                            prog, q, session=sess, request_id=rid, cache=False
                        )
                    )

            async def assassin():
                # two kills, tied to load progress (not wall-clock) so
                # they always land while queries are flowing
                for threshold, lane in ((25, 0), (120, 1)):
                    while len(responses) < threshold:
                        await asyncio.sleep(0.01)
                    kill_lane_child(svc, lane)

            await asyncio.gather(
                *[client() for _ in range(8)], assassin()
            )
            lanes = svc.pool.lane_stats()
            requests_total = svc.telemetry.registry.counter(
                "blog_requests_total"
            ).value
            retries_total = svc.telemetry.registry.counter(
                "blog_retries_total"
            ).value
            exposition = svc.metrics_text()
            await svc.stop()  # closes (flushes) the trace log
            return responses, lanes, requests_total, retries_total, exposition

        responses, lanes, requests_total, retries_total, exposition = run(
            body()
        )

        # zero lost, zero duplicated requests
        assert sorted(responses) == sorted(f"req{i}" for i in range(total))
        assert sum(lane["respawns"] for lane in lanes) >= 2

        # the trace log accounts for every request exactly once
        spans = read_trace_log(trace_log)
        request_spans = [
            s for s in spans if s["trace"].startswith("req")
        ]
        roots = [s for s in request_spans if s["parent"] is None]
        root_count = {}
        for s in roots:
            root_count[s["trace"]] = root_count.get(s["trace"], 0) + 1
        assert root_count == {f"req{i}": 1 for i in range(total)}
        assert requests_total == total == len(roots)

        # replay spans in the log match the replay counter and the
        # per-response retry totals
        replay_spans = [s for s in request_spans if s["name"] == "replay"]
        replied_retries = sum(r.retries for r in responses.values())
        assert len(replay_spans) == retries_total == replied_retries
        assert retries_total >= 1  # at least one kill landed mid-query

        # the text exposition agrees with the span counts
        assert f"blog_requests_total {total}" in exposition
        assert f"blog_retries_total {int(retries_total)}" in exposition

        # every reply exact: nothing lost or duplicated inside an answer set
        for i, (prog, q, sess, expect) in enumerate(plan):
            resp = responses[f"req{i}"]
            assert resp.ok, f"req{i} failed: {resp.error}"
            var = ("G" if "G)" in q else "Y") if prog == "family" else "R"
            got = [a[var] for a in resp.answers]
            assert len(got) == len(set(got)), f"req{i} duplicated: {got}"
            assert set(got) == set(expect), f"req{i} wrong: {got}"


class TestAbandonedSessions:
    def test_dead_childs_sessions_are_never_merged(self):
        """A session living in a killed child must vanish without a
        trace: end_session reports nothing merged and the global store
        stays byte-for-byte untouched."""

        async def body():
            svc = await make_service()
            try:
                resp = await svc.submit(
                    QueryRequest(
                        "family", "gf(sam, G)", session="victim", cache=False
                    )
                )
                assert resp.ok  # the session learned in the child...
                kill_lane_child(svc, svc.router.lane_for("victim"))
                report = await svc.end_session("family", "victim")
                store = svc.programs["family"].global_store
                return (
                    report,
                    store.generation,
                    len(store),
                    svc.sessions_abandoned,
                    ("family", "victim") in svc.router,
                )
            finally:
                await svc.stop()

        report, generation, entries, abandoned, is_open = run(body())
        assert report is None  # nothing merged
        assert generation == 0 and entries == 0  # global store untouched
        assert abandoned >= 1
        assert not is_open  # session dropped, not lingering

    def test_next_query_after_abandonment_reopens_fresh(self):
        async def body():
            svc = await make_service()
            try:
                await svc.submit(
                    QueryRequest(
                        "family", "gf(sam, G)", session="phoenix", cache=False
                    )
                )
                kill_lane_child(svc, svc.router.lane_for("phoenix"))
                # same session name, dead child: the query must succeed
                # against a respawned child and a freshly opened session
                resp = await svc.submit(
                    QueryRequest(
                        "family", "gf(sam, G)", session="phoenix", cache=False
                    )
                )
                is_open = ("family", "phoenix") in svc.router
                return resp, (is_open, svc.router.sessions_opened)
            finally:
                await svc.stop()

        resp, (is_open, opened) = run(body())
        assert resp.ok
        assert sorted(a["G"] for a in resp.answers) == ["den", "doug"]
        assert is_open and opened == 2  # reopened, not reused


class TestHungChild:
    def test_timeout_kills_respawns_and_lane_recovers(self):
        """A deadline miss must not leave a lane wedged: the child is
        killed and respawned, the request fails with a deadline error,
        and the very next query on the lane is served.  The slow query
        is the SIGKILL victim, which runs for more than a second, so it
        always misses its 50 ms deadline."""

        async def body():
            svc = await make_service(
                {"queens": nqueens_program(5), "victim": nqueens_program(VICTIM_N)},
                config=BLogConfig(max_depth=1024),
            )
            try:
                slow = await svc.submit(
                    QueryRequest(
                        "victim", "queens(Qs)", session="sluggish",
                        cache=False, timeout=0.05,
                    )
                )
                follow_up = await svc.submit(
                    QueryRequest(
                        "queens", "queens(Qs)", session="sluggish", cache=False
                    )
                )
                return slow, follow_up, total_respawns(svc), svc.stats()
            finally:
                await svc.stop()

        slow, follow_up, respawns, stats = run(body())
        assert not slow.ok and "deadline" in slow.error
        assert respawns >= 1  # the hung child was killed, not waited out
        assert stats["lane_resets"] >= 1
        assert follow_up.ok  # the lane came back healthy
        assert len(follow_up.answers) == NQUEENS_ANSWERS


#: a process-lane server that prints its lane PIDs, then idles
_ORPHAN_SERVER = """
import asyncio, sys
from repro.service import BLogService, QueryRequest
from repro.workloads import family_program

async def main():
    svc = BLogService({"family": family_program()}, n_workers=2,
                      backend="process", mp_context=sys.argv[1])
    await svc.start()
    assert (await svc.submit(QueryRequest("family", "gf(sam, G)"))).ok
    print(*(lane["pid"] for lane in svc.pool.lane_stats()), flush=True)
    await asyncio.sleep(120)

asyncio.run(main())
"""


def _alive(pid: int) -> bool:
    """True while ``pid`` runs (a zombie awaiting its reaper has exited)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False
    except OSError:  # no procfs: fall back to a signal-0 probe
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True


class TestOrphanedLanes:
    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_lane_children_exit_when_the_server_is_sigkilled(self, method):
        """A SIGKILLed server cannot shut its lanes down; every lane child
        must notice on its own and exit within a few seconds."""
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} start method here")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        server = subprocess.Popen(
            [sys.executable, "-c", _ORPHAN_SERVER, method],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        pids: list[int] = []
        try:
            pids = [int(p) for p in server.stdout.readline().split()]
            assert len(pids) == 2, "server did not report its lane PIDs"
            assert all(_alive(pid) for pid in pids)
            server.kill()
            server.wait(timeout=10)
            deadline = time.monotonic() + 5.0
            while any(_alive(pid) for pid in pids) and time.monotonic() < deadline:
                time.sleep(0.05)
            survivors = [pid for pid in pids if _alive(pid)]
            assert not survivors, f"lane children outlived the server: {survivors}"
        finally:
            if server.poll() is None:
                server.kill()
                server.wait(timeout=10)
            server.stdout.close()
            for pid in pids:  # never leak an orphan, even when failing
                if _alive(pid):
                    os.kill(pid, signal.SIGKILL)
