"""The cache-hit path: a repeated query text is served by lookups.

A cacheable query text that parsed once keeps its canonical form in a
memo bounded by the cache's capacity, so a hit on it runs neither the
parser nor the canonicalization; its goals are parsed again only when a
lane is to run them (a stale line, an evicted line).  The request's
metric series are fetched from the registry once, at their first use,
so the exposition holds exactly the series that were used — pinned here
against a literal recorded before the series were bound.
"""

import asyncio
import json
import re

import pytest

import repro.service.server as server_mod
from repro.service import BLogService, QueryRequest
from repro.workloads import family_program

LEFT_RECURSIVE = "p(X) :- p(X).\np(a).\n"


def run(coro):
    return asyncio.run(coro)


@pytest.fixture
def parses(monkeypatch) -> list:
    """Every text the service hands the parser, in order."""
    seen: list[str] = []
    real = server_mod.parse_query

    def counting(text):
        seen.append(text)
        return real(text)

    monkeypatch.setattr(server_mod, "parse_query", counting)
    return seen


async def started(backend: str = "thread", **kw) -> BLogService:
    kw.setdefault("n_workers", 1)
    svc = BLogService({"family": family_program()}, backend=backend, **kw)
    await svc.start()
    return svc


def answer_set(resp) -> list:
    return sorted(json.dumps(a, sort_keys=True) for a in resp.answers)


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_a_hit_does_not_parse(parses, backend):
    async def body():
        svc = await started(backend)
        try:
            ask = QueryRequest("family", "gf(sam, G)", session="s")
            first = await svc.submit(ask)
            assert parses == ["gf(sam, G)"] and not first.cached
            for _ in range(3):
                hit = await svc.submit(ask)
                assert hit.cached and answer_set(hit) == answer_set(first)
            assert len(parses) == 1
            # a merge stales the line: the memo still knows the text, and
            # the goals are parsed because a lane runs them
            assert await svc.end_session("family", "s") is not None
            stale = await svc.submit(ask)
            assert not stale.cached and answer_set(stale) == answer_set(first)
            assert len(parses) == 2
            assert (await svc.submit(ask)).cached and len(parses) == 2
            # cache=False always runs the engine, so it always parses
            for n in (3, 4):
                assert not (await svc.submit(
                    QueryRequest("family", "gf(sam, G)", session="s", cache=False)
                )).cached
                assert len(parses) == n
            assert svc.cache.stats()["stale"] == 1
        finally:
            await svc.stop()

    run(body())


def test_a_hit_over_tcp_does_not_parse(parses):
    async def body():
        svc = BLogService({"family": family_program()}, n_workers=1)
        server = await svc.serve_tcp("127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        try:
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            replies = []
            for _ in range(3):
                writer.write(b'{"program": "family", "query": "gf(sam, G)"}\n')
                await writer.drain()
                replies.append(json.loads(await reader.readline()))
            writer.close()
            await writer.wait_closed()
        finally:
            await svc.stop()
        assert [r["cached"] for r in replies] == [False, True, True]
        assert all(r["answers"] == replies[0]["answers"] for r in replies)
        assert parses == ["gf(sam, G)"]

    run(body())


def test_the_memo_holds_at_most_cache_capacity_texts(parses):
    async def body():
        svc = await started(cache_capacity=4)
        try:
            # ten texts, one canonical form: one cache line serves them all
            texts = [f"gf(sam, G{i})" for i in range(10)]
            for i, text in enumerate(texts):
                resp = await svc.submit(QueryRequest("family", text))
                assert resp.ok and resp.cached == (i > 0)
                assert resp.answers and all(set(a) == {f"G{i}"} for a in resp.answers)
                assert len(svc._canonical_forms) <= 4
            assert list(svc._canonical_forms) == texts[-4:]
            # an evicted text is parsed again, and still served by name
            again = await svc.submit(QueryRequest("family", texts[0]))
            assert again.cached and all(set(a) == {"G0"} for a in again.answers)
            assert parses == [*texts, texts[0]]
            assert len(svc._canonical_forms) == 4
        finally:
            await svc.stop()

    run(body())


def test_a_syntax_error_is_answered_and_counted_every_time(parses):
    async def body():
        svc = await started()
        try:
            for n in (1, 2, 3):
                resp = await svc.submit(QueryRequest("family", "gf(sam,"))
                assert not resp.ok and resp.error.startswith("syntax error")
                assert svc.stats()["errors"] == n
            assert parses == ["gf(sam,"] * 3
            assert "gf(sam," not in svc._canonical_forms
        finally:
            await svc.stop()

    run(body())


def test_each_text_gets_its_own_names_on_a_hit():
    async def body():
        svc = await started()
        try:
            fill = await svc.submit(QueryRequest("family", "gf(sam, G)"))
            assert fill.answers and not fill.cached
            values = sorted(a["G"] for a in fill.answers)
            for text, name in [
                ("gf(sam, Who)", "Who"),
                ("gf( sam ,G )", "G"),
                ("gf(sam, G)", "G"),
            ]:
                for _ in range(2):  # a cache hit, then a memo and cache hit
                    resp = await svc.submit(QueryRequest("family", text))
                    assert resp.cached
                    assert sorted(a[name] for a in resp.answers) == values
                    assert all(set(a) == {name} for a in resp.answers)
            # the anonymous variable has its own line and reports no name
            anon = [await svc.submit(QueryRequest("family", "gf(sam, _)")) for _ in range(3)]
            assert [r.cached for r in anon] == [False, True, True]
            assert all(r.answers == [{}] * len(values) for r in anon)
        finally:
            await svc.stop()

    run(body())


# -- lazily registered series -------------------------------------------------

#: ``metrics_text()`` after :func:`scripted_run`, recorded before the
#: request series were bound once; ``*`` masks a timing
SCRIPTED_EXPOSITION = """\
# TYPE blog_admitted_total counter
blog_admitted_total 11
# TYPE blog_cache_entries gauge
blog_cache_entries 2
# TYPE blog_cache_hits_total counter
blog_cache_hits_total 3
# TYPE blog_cache_misses_total counter
blog_cache_misses_total 4
# TYPE blog_cache_stale_total counter
blog_cache_stale_total 1
# TYPE blog_engine_seconds histogram
blog_engine_seconds_count 8
blog_engine_seconds_sum *
blog_engine_seconds{q="0.5"} *
blog_engine_seconds{q="0.95"} *
blog_engine_seconds_max *
# TYPE blog_errors_total counter
blog_errors_total 3
# TYPE blog_incomplete_total counter
blog_incomplete_total 1
# TYPE blog_lane_resets_total counter
blog_lane_resets_total 0
# TYPE blog_peak_pending gauge
blog_peak_pending 1
# TYPE blog_pending gauge
blog_pending 0
# TYPE blog_queue_wait_seconds histogram
blog_queue_wait_seconds_count 11
blog_queue_wait_seconds_sum *
blog_queue_wait_seconds{q="0.5"} *
blog_queue_wait_seconds{q="0.95"} *
blog_queue_wait_seconds_max *
# TYPE blog_rejected_total counter
blog_rejected_total 0
# TYPE blog_request_cache_hits_total counter
blog_request_cache_hits_total 3
# TYPE blog_request_seconds histogram
blog_request_seconds_count 11
blog_request_seconds_sum *
blog_request_seconds{q="0.5"} *
blog_request_seconds{q="0.95"} *
blog_request_seconds_max *
# TYPE blog_requests_engine_total counter
blog_requests_engine_total{engine="blog"} 8
blog_requests_engine_total{engine="cache"} 3
# TYPE blog_requests_total counter
blog_requests_total 11
# TYPE blog_served_queue_wait_seconds histogram
blog_served_queue_wait_seconds_count 8
blog_served_queue_wait_seconds_sum *
blog_served_queue_wait_seconds{q="0.5"} *
blog_served_queue_wait_seconds{q="0.95"} *
blog_served_queue_wait_seconds_max *
# TYPE blog_served_seconds histogram
blog_served_seconds_count 8
blog_served_seconds_sum *
blog_served_seconds{q="0.5"} *
blog_served_seconds{q="0.95"} *
blog_served_seconds_max *
# TYPE blog_sessions_abandoned_total counter
blog_sessions_abandoned_total 0
# TYPE blog_sessions_merged_total counter
blog_sessions_merged_total 1
# TYPE blog_sessions_open gauge
blog_sessions_open 3
# TYPE blog_sessions_opened_total counter
blog_sessions_opened_total 4
# TYPE blog_wal_appends_total counter
blog_wal_appends_total 1
# TYPE blog_wal_fsync_seconds histogram
blog_wal_fsync_seconds_count 1
blog_wal_fsync_seconds_sum *
blog_wal_fsync_seconds{q="0.5"} *
blog_wal_fsync_seconds{q="0.95"} *
blog_wal_fsync_seconds_max *
"""

#: ``metrics_text()`` of a service nothing was asked of: no request series
FRESH_EXPOSITION = """\
# TYPE blog_admitted_total counter
blog_admitted_total 0
# TYPE blog_cache_entries gauge
blog_cache_entries 0
# TYPE blog_cache_hits_total counter
blog_cache_hits_total 0
# TYPE blog_cache_misses_total counter
blog_cache_misses_total 0
# TYPE blog_cache_stale_total counter
blog_cache_stale_total 0
# TYPE blog_lane_resets_total counter
blog_lane_resets_total 0
# TYPE blog_peak_pending gauge
blog_peak_pending 0
# TYPE blog_pending gauge
blog_pending 0
# TYPE blog_rejected_total counter
blog_rejected_total 0
# TYPE blog_sessions_abandoned_total counter
blog_sessions_abandoned_total 0
# TYPE blog_sessions_merged_total counter
blog_sessions_merged_total 0
# TYPE blog_sessions_open gauge
blog_sessions_open 0
# TYPE blog_sessions_opened_total counter
blog_sessions_opened_total 0
"""


def masked(exposition: str) -> str:
    """The exposition with every histogram value but ``_count`` as ``*``."""
    histograms = set(re.findall(r"^# TYPE (\S+) histogram$", exposition, re.M))
    lines = []
    for line in exposition.splitlines():
        name = re.split(r"[{ ]", line, maxsplit=1)[0]
        if (
            not line.startswith("#")
            and re.sub(r"_(sum|max)$", "", name) in histograms
        ):
            line = line.rsplit(" ", 1)[0] + " *"
        lines.append(line)
    return "\n".join(lines) + "\n"


async def scripted_run(data_dir) -> str:
    """Hits, misses, errors, an incomplete answer and a journaled merge."""
    svc = BLogService(
        {"family": family_program(), "lr": LEFT_RECURSIVE},
        n_workers=1, backend="thread", data_dir=data_dir,
    )
    await svc.start()
    try:
        for request in [
            QueryRequest("family", "gf(sam, G)", session="s"),  # miss, fill
            QueryRequest("family", "gf(sam, G)", session="s"),  # hit
            QueryRequest("family", "gf(sam, Who)", session="s"),  # hit
            QueryRequest("family", "gf(sam, _)", session="s"),  # miss: own line
            QueryRequest("family", "gf(sam,", session="s"),  # syntax error
            QueryRequest("family", "gf(sam,", session="s"),  # and again
            QueryRequest("family", "gf(sam, G)", session="t", cache=False),
            QueryRequest("nope", "gf(sam, G)"),  # unknown program
            QueryRequest("lr", "p(X)", session="lr"),  # incomplete
        ]:
            await svc.submit(request)
        await svc.end_session("family", "s")  # a merge, journaled
        await svc.submit(QueryRequest("family", "gf(sam, G)", session="u"))  # stale
        await svc.submit(QueryRequest("family", "gf(sam, G)", session="u"))  # hit
        return svc.metrics_text()
    finally:
        await svc.stop()


def test_scripted_run_exposes_the_recorded_series(tmp_path):
    assert masked(run(scripted_run(tmp_path / "data"))) == SCRIPTED_EXPOSITION


def test_a_fresh_service_reports_zeros():
    svc = BLogService({"family": family_program()}, n_workers=1)
    assert svc.metrics_text() == FRESH_EXPOSITION
    summary = svc.stats_agg.summary()
    assert summary.pop("by_engine") == {}
    assert set(summary.values()) == {0}
    assert svc.stats()["cache"] == {
        "entries": 0, "hits": 0, "misses": 0, "stale": 0, "hit_rate": 0.0,
    }
