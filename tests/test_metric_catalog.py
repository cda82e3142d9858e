"""The metric catalog is the registry's contract.

:data:`~repro.service.telemetry.METRIC_CATALOG` names every series the
service may emit, with its kind, and :class:`MetricsRegistry` refuses
anything else.  These tests pin both halves: the registry raises on a
name or kind outside the catalog, and one in-process scenario drives
the service down every path that registers a series, so no catalog
entry is dead and no call site can name a series the catalog lacks.
"""

import asyncio
import shutil
import socket
import struct

import pytest

from repro.service import BLogService, Overloaded, QueryRequest, WorkerDied
from repro.service.server import LINE_LIMIT
from repro.service.telemetry import METRIC_CATALOG, MetricsRegistry
from repro.weights.wal import DurableStore
from repro.workloads import family_program

LEFT_RECURSIVE = "p(X) :- p(X).\np(a).\n"


def test_catalog_names_share_the_prefix():
    assert METRIC_CATALOG
    assert all(name.startswith("blog_") for name in METRIC_CATALOG)


def test_registry_refuses_names_and_kinds_outside_the_catalog():
    reg = MetricsRegistry()
    with pytest.raises(ValueError, match="not in METRIC_CATALOG"):
        reg.counter("blog_request_total")  # misspelt blog_requests_total
    with pytest.raises(ValueError, match="is a counter, not a gauge"):
        reg.gauge("blog_requests_total")
    with pytest.raises(ValueError, match="is a gauge, not a histogram"):
        reg.histogram("blog_pending")
    assert reg.expose() == ""  # a refused name registers nothing


def registered(svc: BLogService) -> set[str]:
    return {name for name in METRIC_CATALOG if svc.telemetry.registry.series(name)}


async def wait_for(predicate, timeout: float = 5.0) -> None:
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        assert asyncio.get_running_loop().time() < deadline, "timed out"
        await asyncio.sleep(0.01)


def test_scenario_registers_every_catalog_metric(tmp_path, monkeypatch, on_lane_query):
    data_dir = tmp_path / "data"
    crashed_dir = tmp_path / "crashed"

    def failing_checkpoint(self, payload):
        raise OSError("disk full")

    deaths = []

    def dies_once(real, worker, msg):
        if not deaths:
            deaths.append(msg)
            raise WorkerDied("simulated crash")
        return real(worker, msg)

    async def first_boot() -> BLogService:
        svc = BLogService(
            {"family": family_program(), "lr": LEFT_RECURSIVE},
            n_workers=1,
            backend="thread",
            max_pending=1,
            degrade_pending=0,
            data_dir=data_dir,
            checkpoint_interval=0.01,
        )
        # every periodic checkpoint fails, so the journal is never compacted
        monkeypatch.setattr(DurableStore, "write_checkpoint", failing_checkpoint)
        server = await svc.serve_tcp("127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]

        # a query, a cache hit, a degraded machine query, an error, and a
        # truncated (incomplete) answer
        assert (await svc.submit(QueryRequest("family", "gf(sam, G)", session="s"))).ok
        assert (await svc.submit(QueryRequest("family", "gf(sam, G)", session="s"))).cached
        machine = QueryRequest("family", "gf(john, G)", engine="machine")
        assert (await svc.submit(machine)).degraded
        assert not (await svc.submit(QueryRequest("nope", "gf(sam, G)"))).ok
        lr = QueryRequest("lr", "p(X)", session="lr", engine="blog")
        assert not (await svc.submit(lr)).complete

        # an end_session merge, journaled; then the journal as a crash would leave it
        assert await svc.end_session("family", "s") is not None
        shutil.copytree(data_dir, crashed_dir)

        # a lane death, replayed once
        on_lane_query(dies_once)
        assert (await svc.submit(QueryRequest("family", "gf(curt, G)"))).retries == 1

        # an admission rejection
        svc.admission.acquire()
        with pytest.raises(Overloaded):
            await svc.submit(QueryRequest("family", "gf(sam, G)"))
        svc.admission.release()

        # an oversized TCP line, answered with an error
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(b"x" * (LINE_LIMIT + 10) + b"\n")
        await writer.drain()
        assert b"over" in await reader.readline()
        writer.close()
        await writer.wait_closed()

        # a client that resets the connection before its reply arrives
        _, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(b'{"program": "family", "query": "gf(sam, G)"}\n')
        await writer.drain()
        linger = struct.pack("ii", 1, 0)  # close with a reset, not a FIN
        writer.get_extra_info("socket").setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, linger)
        writer.transport.abort()

        reg = svc.telemetry.registry
        await wait_for(lambda: reg.get("blog_checkpoint_errors_total") is not None)
        await wait_for(lambda: reg.get("blog_client_disconnects_total") is not None)

        # a drain; the final checkpoint succeeds
        monkeypatch.undo()
        await svc.lifecycle.drain(timeout=5.0)
        return svc

    async def second_boot() -> BLogService:
        svc = BLogService({"family": family_program()}, n_workers=1, data_dir=crashed_dir)
        await svc.start()
        await svc.stop()
        return svc

    first = asyncio.run(first_boot())
    second = asyncio.run(second_boot())
    replayed = second.telemetry.registry.get("blog_recovery_records_replayed_total")
    assert replayed is not None and replayed.value == 1
    missing = set(METRIC_CATALOG) - registered(first) - registered(second)
    assert not missing, f"catalog series never registered: {sorted(missing)}"
