"""Journal-first session commits on a durable service.

A session merge is planned as one ``StoreDelta``, appended to the
program's write-ahead journal (fsync included), and only then applied
to the global store and acknowledged.  These tests pin the three
consequences:

* an append that fails changes nothing a reader can see: the store,
  its generation, the answer cache and the merge counts stay as they
  were, and a restart recovers the same store;
* two sessions of one program that end concurrently on different lanes
  commit one after the other, the second planned against the first
  one's apply, exactly as :class:`~repro.weights.session.SessionManager`
  merges them in the same order;
* a checkpoint never snapshots between a merge's append and its apply.

CI runs this module once per backend (``BLOG_SERVICE_BACKEND``); the
journal lives in the server process on both.
"""

import asyncio
import json
import os
import shutil
import time

import pytest

import repro.service.server as server_mod
from repro.service import BLogService, QueryRequest
from repro.weights import DurableStore, SessionManager, WeightState
from repro.workloads import family_program

from .store_writes import put_infinite, put_known

BACKEND = os.environ.get("BLOG_SERVICE_BACKEND", "thread")
QUERY = "gf(sam, G)"


def run(coro):
    return asyncio.run(coro)


def make_service(data_dir):
    return BLogService(
        {"family": family_program()}, n_workers=2, backend=BACKEND, data_dir=data_dir
    )


def recovered(program_dir, tmp_path):
    """The store a restart would recover from ``program_dir`` as it is
    now (recovered from a copy, so the live journal is not touched)."""
    copy = tmp_path / "recovered"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(program_dir, copy)
    store, _ = DurableStore(copy).recover()
    return store


class TestFailedAppend:
    def test_failed_append_changes_nothing(self, tmp_path, monkeypatch):
        data_dir = tmp_path / "weights"

        def failing_log_merge(self, session, generation, delta):
            raise OSError("journal device full")

        async def body():
            svc = make_service(data_dir)
            await svc.start()
            server = await svc.serve_tcp("127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                first = await svc.submit(QueryRequest("family", QUERY, session="s1"))
                await svc.submit(QueryRequest("family", QUERY, session="s2", cache=False))
                store = svc.programs["family"].global_store
                before = (store.generation, store.snapshot())
                merged_total = svc.telemetry.registry.counter("blog_sessions_merged_total")
                counts = (svc.router.sessions_merged, merged_total.value)

                monkeypatch.setattr(DurableStore, "log_merge", failing_log_merge)
                with pytest.raises(OSError, match="journal device full"):
                    await svc.end_session("family", "s1")
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                msg = {"op": "end_session", "program": "family", "session": "s2"}
                writer.write((json.dumps(msg) + "\n").encode())
                await writer.drain()
                reply = json.loads(await reader.readline())
                writer.close()
                await writer.wait_closed()

                after = (store.generation, store.snapshot())
                again = await svc.submit(QueryRequest("family", QUERY, session="s3"))
                counts_after = (svc.router.sessions_merged, merged_total.value)
            finally:
                await svc.stop()
            return first, reply, before, after, again, counts, counts_after

        first, reply, before, after, again, counts, counts_after = run(body())
        assert first.ok and not first.cached
        assert reply["ok"] is False and "journal device full" in reply["error"]
        assert after == before
        assert again.ok and again.cached
        assert counts_after == counts

        async def restart():
            svc = make_service(data_dir)
            await svc.start()
            try:
                store = svc.programs["family"].global_store
                return store.generation, store.snapshot()
            finally:
                await svc.stop()

        assert run(restart()) == before


class TestRetryAfterFailedAppend:
    def test_retried_end_session_commits_the_held_session(self, tmp_path, monkeypatch):
        """The session a failed append closed is held, not dropped: the
        retried ``end_session`` (over TCP) merges it once, and a restart
        recovers that merge from the journal."""
        data_dir = tmp_path / "weights"
        append = DurableStore.log_merge
        failed: list[str] = []

        def failing_once(self, session, generation, delta):
            if not failed:
                failed.append(session)
                raise OSError("journal device full")
            return append(self, session, generation, delta)

        async def end_session(port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            msg = {"op": "end_session", "program": "family", "session": "s1"}
            writer.write((json.dumps(msg) + "\n").encode())
            await writer.drain()
            reply = json.loads(await reader.readline())
            writer.close()
            await writer.wait_closed()
            return reply

        async def body():
            svc = make_service(data_dir)
            await svc.start()
            server = await svc.serve_tcp("127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            store = svc.programs["family"].global_store
            merged_total = svc.telemetry.registry.counter("blog_sessions_merged_total")

            def counts():
                return store.generation, merged_total.value, svc.router.sessions_merged

            try:
                resp = await svc.submit(QueryRequest("family", QUERY, session="s1", cache=False))
                assert resp.ok
                before = counts()
                monkeypatch.setattr(DurableStore, "log_merge", failing_once)
                replies = [await end_session(port)]
                held = counts()
                replies.append(await end_session(port))
                after = counts()
                replies.append(await end_session(port))
                live = (store.generation, store.snapshot())
                again = recovered(data_dir / "family", tmp_path)
            finally:
                await svc.stop()
            return replies, before, held, after, counts(), live, again

        replies, before, held, after, final, live, again = run(body())
        failure, retry, repeat = replies
        assert failure["ok"] is False and "journal device full" in failure["error"]
        assert held == before
        assert retry["ok"] is True and retry["merged"] is not None
        assert retry["merged"]["generation"] == after[0] > before[0]
        assert after[1:] == (before[1] + 1, before[2] + 1)
        assert repeat == {"ok": True, "merged": None}
        assert final == after
        assert (again.generation, again.snapshot()) == live

        async def restart():
            svc = make_service(data_dir)
            await svc.start()
            try:
                store = svc.programs["family"].global_store
                return store.generation, store.snapshot()
            finally:
                await svc.stop()

        assert run(restart()) == live


    def test_a_lane_reset_abandons_the_held_session(self, tmp_path, monkeypatch):
        """A held session is abandoned by a reset of its lane, like any
        session routed there: the retry then merges nothing."""

        def failing_log_merge(self, session, generation, delta):
            raise OSError("journal device full")

        async def body():
            svc = make_service(tmp_path / "weights")
            await svc.start()
            try:
                resp = await svc.submit(QueryRequest("family", QUERY, session="s1", cache=False))
                assert resp.ok
                store = svc.programs["family"].global_store
                before = (store.generation, svc.sessions_abandoned)
                monkeypatch.setattr(DurableStore, "log_merge", failing_log_merge)
                with pytest.raises(OSError):
                    await svc.end_session("family", "s1")
                monkeypatch.undo()
                svc._on_lane_reset(svc.router.lane_for("s1"))
                retry = await svc.end_session("family", "s1")
                after = (store.generation, svc.sessions_abandoned)
            finally:
                await svc.stop()
            return retry, before, after

        retry, before, after = run(body())
        assert retry is None
        assert after == (before[0], before[1] + 1)


class TestConcurrentCommits:
    def test_two_lanes_commit_in_turn(self, tmp_path, monkeypatch):
        data_dir = tmp_path / "weights"
        planned = []
        plan, append = server_mod.plan_merge, DurableStore.log_merge

        def recording_plan(store, entries, **kw):
            planned.append(dict(entries))
            return plan(store, entries, **kw)

        def slow_log_merge(self, session, generation, delta):
            time.sleep(0.05)
            return append(self, session, generation, delta)

        async def body():
            svc = make_service(data_dir)
            await svc.start()
            try:
                names = (f"s{i}" for i in range(100))
                sessions, lanes = [], set()
                for s in names:
                    lane = svc.router.lane_for(s)
                    if lane not in lanes:
                        lanes.add(lane)
                        sessions.append(s)
                    if len(sessions) == 2:
                        break
                for s in sessions:
                    resp = await svc.submit(QueryRequest("family", QUERY, session=s, cache=False))
                    assert resp.ok
                store = svc.programs["family"].global_store
                pre = store.copy()
                monkeypatch.setattr(server_mod, "plan_merge", recording_plan)
                monkeypatch.setattr(DurableStore, "log_merge", slow_log_merge)
                reports = await asyncio.gather(
                    *(svc.end_session("family", s) for s in sessions)
                )
                live = (store.generation, store.snapshot())
                journal, _, _ = svc._durable["family"].wal.scan()
                again = recovered(data_dir / "family", tmp_path)
            finally:
                await svc.stop()
            return sessions, pre, reports, live, journal, again, svc.config.alpha

        sessions, pre, reports, live, journal, again, alpha = run(body())
        assert all(r is not None for r in reports)
        assert len({r.generation for r in reports}) == 2
        assert sorted((rec["session"], rec["generation"]) for rec in journal) == sorted(
            zip(sessions, (r.generation for r in reports))
        )

        # the same buffers merged serially, in commit order, by the
        # library's session manager
        mgr = SessionManager(pre, alpha=alpha)
        expected = []
        for entries in planned:
            local = mgr.begin_session()
            for key, e in entries.items():
                if e.state is WeightState.KNOWN:
                    put_known(local, key, e.value)
                elif e.state is WeightState.INFINITE:
                    put_infinite(local, key)
            expected.append(mgr.end_session())
        in_order = sorted(reports, key=lambda r: r.generation)
        assert in_order == expected
        assert in_order[1].averaged > 0  # planned against the first apply
        assert live == (mgr.global_store.generation, mgr.global_store.snapshot())
        assert (again.generation, again.snapshot()) == live


class TestCheckpointBetweenAppendAndApply:
    def test_checkpoint_waits_for_the_apply(self, tmp_path, monkeypatch):
        """A checkpoint asked for while a merge's append has returned on
        the WAL thread, but before the loop has applied it, must not
        snapshot the unapplied store under the appended record's seq:
        the journal would be truncated and the merge lost."""
        data_dir = tmp_path / "weights"
        append = DurableStore.log_merge

        def append_then_stall(self, session, generation, delta):
            seq = append(self, session, generation, delta)
            time.sleep(0.05)
            return seq

        async def body():
            svc = make_service(data_dir)
            await svc.start()
            try:
                await svc.submit(QueryRequest("family", QUERY, session="s1", cache=False))
                ds = svc._durable["family"]
                seq = ds.wal.seq
                monkeypatch.setattr(DurableStore, "log_merge", append_then_stall)
                merge = asyncio.create_task(svc.end_session("family", "s1"))
                while ds.wal.seq == seq:  # the record is on disk, not yet applied
                    await asyncio.sleep(0.001)
                await svc.checkpoint()
                report = await merge
                store = svc.programs["family"].global_store
                live = (store.generation, store.snapshot())
                again = recovered(data_dir / "family", tmp_path)
            finally:
                await svc.stop()
            return report, live, again

        report, live, again = run(body())
        assert report is not None and report.adopted > 0
        assert live[0] == report.generation
        assert (again.generation, again.snapshot()) == live
