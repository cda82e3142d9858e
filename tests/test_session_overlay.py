"""Session stores are overlays on the lane's mirror, not copies of it.

* A seeded differential drives one lane worker through interleaved
  queries (the first of a session opens it, some carry a store sync),
  direct writes and closes, and
  runs the same steps against the copy-based session store this
  overlay replaced (kept below as a reference): every weight read,
  every closed session's delta and the merged global store must agree.
* Opening a session allocates the same few bytes whatever the size of
  the mirror it opens on.
* A served lane's mirror catches up with the merges committed since its
  last sync, including one committed while that sync was in flight,
  and is installed afresh after a sync that raised.
"""

from __future__ import annotations

import asyncio
import random
import tracemalloc

import pytest

from repro.core import BLogConfig, BLogEngine
from repro.core.procpool import CloseSession, LaneWorker, LoadProgram, Query
from repro.logic.parser import parse_query
from repro.machine.blog_machine import MachineConfig
from repro.ortree.tree import ArcKey
from repro.service import BLogService, QueryRequest
from repro.weights.session import plan_merge
from repro.weights.store import StoreDelta, WeightStore
from repro.workloads import scaled_family

from .store_writes import put_infinite, put_known, tombstone


class CopySession(WeightStore):
    """The reference: a session store that copies the whole mirror at
    open, and whose delta is every key it wrote, at its last entry."""

    def __init__(self, mirror: WeightStore):
        super().__init__(mirror.n, mirror.a)
        self._entries = mirror.snapshot()
        self.generation = mirror.generation
        self.written: dict[ArcKey, None] = {}

    def apply_delta(self, delta: StoreDelta) -> int:
        self.written.update(dict.fromkeys(delta.entries))
        return super().apply_delta(delta)

    def delta_entries(self) -> dict:
        return {k: self.entry(k) for k in self.written}


FAMILY = scaled_family(generations=3, children_per_couple=2, couples_per_generation=4, seed=3)
CONFIG = BLogConfig(max_depth=64)
TEXTS = [f"f({dad}, Who)" for dad in sorted(set(FAMILY.fathers.values()))[:3]]
TEXTS += [f"gf({root}, Who)" for root in FAMILY.roots[:3]] + ["gf(X, Y)", "f(nobody, X)"]


def assert_same_reads(store, reference, keys) -> None:
    for k in keys:
        assert store.entry(k) == reference.entry(k), k
        assert store.weight(k) == reference.weight(k), k


@pytest.mark.parametrize("seed", range(8))
def test_overlay_sessions_match_copied_sessions(seed):
    rng = random.Random(seed)
    worker = LaneWorker(lane=0)
    load = LoadProgram("fam", FAMILY.program, CONFIG, MachineConfig())
    worker.handle(Query("fam", "loader", "blog", parse_query("true"), load=load))
    mirror = WeightStore(n=CONFIG.n, a=CONFIG.a)  # the reference lane's mirror
    glob = WeightStore(n=CONFIG.n, a=CONFIG.a)
    ref_glob = WeightStore(n=CONFIG.n, a=CONFIG.a)
    missing: dict = {}  # committed entries both mirrors lack
    reference: dict[str, BLogEngine] = {}  # session -> engine on a CopySession
    seen: set[ArcKey] = set()
    befores = 0

    def ask(name: str, text: str, sync: StoreDelta | None = None) -> None:
        """One query on both sides; like the lane's, the reference
        applies the sync first and opens the session after it."""
        if sync is not None:
            mirror.apply_delta(sync)
        if name not in reference:
            reference[name] = BLogEngine(
                FAMILY.program, CONFIG, global_store=CopySession(mirror)
            )
        reply = worker.handle(Query("fam", name, "blog", parse_query(text), sync=sync))
        ref = reference[name].query(text)
        assert reply.answers == [{k: str(v) for k, v in a.items()} for a in ref.answers]
        assert reply.expansions == ref.expansions

    for step in range(120):
        op = rng.random()
        name = f"s{rng.randrange(4)}"
        if op < 0.45 or (op < 0.6 and name not in reference):
            ask(name, rng.choice(TEXTS))
        elif op < 0.6:
            store = worker.sessions["fam", name].store
            ref_store = reference[name].store
            if not seen:
                continue
            key = rng.choice(sorted(seen, key=repr))
            write = rng.choice(("forget", "set_infinite", "set_known", "clear"))
            if write == "set_known":
                value = rng.uniform(0.0, 20.0)
                put_known(store, key, value)
                put_known(ref_store, key, value)
            elif write == "set_infinite":
                put_infinite(store, key)
                put_infinite(ref_store, key)
            elif write == "forget":
                tombstone(store, key)
                tombstone(ref_store, key)
            elif rng.random() < 0.2:  # clear: a tombstone for every key
                tombstone(store, *store.keys())
                tombstone(ref_store, *ref_store.keys())
        elif op < 0.8:
            sync = None
            if missing:
                befores += len(worker.mirrors["fam"]._sessions)
                sync = StoreDelta(None, glob.generation, dict(missing))
                missing.clear()
            ask(name, rng.choice(TEXTS), sync)
        else:
            delta = worker.handle(CloseSession("fam", name))
            if name not in reference:
                assert delta is None
                continue
            ref_entries = reference.pop(name).store.delta_entries()
            assert delta.entries == ref_entries
            plan, _ = plan_merge(glob, delta.entries, alpha=CONFIG.alpha)
            ref_plan, _ = plan_merge(ref_glob, ref_entries, alpha=CONFIG.alpha)
            glob.apply_delta(plan)
            ref_glob.apply_delta(ref_plan)
            missing.update(plan.entries)
            assert glob.snapshot() == ref_glob.snapshot()
            assert glob.generation == ref_glob.generation
            continue
        store = worker.sessions["fam", name].store
        ref_store = reference[name].store
        seen.update(store.keys(), ref_store.keys(), mirror.keys())
        assert_same_reads(store, ref_store, seen)
        assert set(store.keys()) == set(ref_store.keys())
        assert store.delta().entries == ref_store.delta_entries(), step
    assert befores > 0  # syncs did land under open sessions
    assert glob.snapshot() == ref_glob.snapshot()


def bytes_per_open(mirror_keys: int, opens: int = 8) -> float:
    """Traced bytes each first query of a new session keeps, on a
    mirror of ``mirror_keys`` keys; the query (``true``) learns nothing."""
    worker = LaneWorker(lane=0)
    entries = WeightStore(n=CONFIG.n, a=CONFIG.a)
    for i in range(mirror_keys):
        put_known(entries, ArcKey("pointer", (-1 - i, 0, i)), 1.0 + i % 7)
    load = LoadProgram("fam", FAMILY.program, CONFIG, MachineConfig())
    sync = StoreDelta(None, entries.generation, entries.snapshot())
    true = parse_query("true")
    worker.handle(Query("fam", "warm-up", "blog", true, load=load, sync=sync))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(opens):
            worker.handle(Query("fam", f"s{i}", "blog", true))
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return grown / opens


def test_a_session_open_costs_the_same_on_any_mirror():
    small = bytes_per_open(1_000)
    large = bytes_per_open(26_000)
    assert large <= small + 2048, (small, large)


# -- a lane's mirror catches up from committed merges ------------------------


def lane_sessions(svc, count: int) -> list[str]:
    """One session name routed to each of ``count`` lanes, lane order."""
    by_lane: dict[int, str] = {}
    for i in range(100):
        by_lane.setdefault(svc.router.lane_for(f"u{i}"), f"u{i}")
    return [by_lane[lane] for lane in range(count)]


def run_service(body, backend: str = "thread", **kw):
    async def main():
        svc = BLogService({"family": FAMILY.program}, backend=backend, **kw)
        await svc.start()
        try:
            return await body(svc)
        finally:
            await svc.stop()

    return asyncio.run(main())


def mirror_of(svc, lane: int) -> WeightStore:
    return svc.pool.backend.workers[lane].mirrors["family"]


def ask(session: str, text: str = TEXTS[3]) -> QueryRequest:
    return QueryRequest("family", text, session=session, cache=False)


def test_a_merge_reaches_every_loaded_lane_at_its_next_query():
    async def body(svc):
        a, b = lane_sessions(svc, 2)
        for s in (a, b):
            assert (await svc.submit(ask(s))).ok
        await svc.end_session("family", a)
        glob = svc.programs["family"].global_store
        lacks = svc.pool.lane(1).missing["family"]
        assert lacks and all(glob.entry(k) == e for k, e in lacks.items())
        assert (await svc.submit(ask(b))).ok
        return glob.snapshot(), mirror_of(svc, 1).snapshot(), svc.pool.lane(1).missing

    glob, mirror, missing = run_service(body, n_workers=2)
    assert mirror == glob and missing == {"family": {}}


def test_a_merge_during_a_sync_stays_missing():
    """The entries a lane lacks are taken before the sync's await: a
    merge that commits while the sync is in flight is shipped next."""

    async def body(svc):
        a, b = lane_sessions(svc, 2)
        assert (await svc.submit(ask(a))).ok
        await svc.end_session("family", a)  # the store is not empty
        assert (await svc.submit(ask(a, TEXTS[0]))).ok  # a's next session
        real_lane_call = svc.pool.lane_call
        merged = []

        async def merging_lane_call(lane, msg, timeout):
            if isinstance(msg, Query) and msg.sync is not None and lane == 1 and not merged:
                merged.append(await svc.end_session("family", a))
            return await real_lane_call(lane, msg, timeout)

        svc.pool.lane_call = merging_lane_call
        assert (await svc.submit(ask(b))).ok  # first load: the whole store
        assert merged and merged[0] is not None
        during = dict(svc.pool.lane(1).missing["family"])
        assert (await svc.submit(ask(b, TEXTS[0]))).ok
        glob = svc.programs["family"].global_store
        return during, glob.snapshot(), mirror_of(svc, 1).snapshot()

    during, glob, mirror = run_service(body, n_workers=2)
    assert during and mirror == glob


def test_a_sync_that_raises_reinstalls_the_whole_store():
    async def body(svc):
        a, b = lane_sessions(svc, 2)
        assert (await svc.submit(ask(a))).ok
        await svc.end_session("family", a)
        real_lane_call = svc.pool.lane_call
        failed = []

        async def failing_lane_call(lane, msg, timeout):
            if isinstance(msg, Query) and msg.sync is not None and not failed:
                failed.append(msg)
                raise RuntimeError("sync lost")
            return await real_lane_call(lane, msg, timeout)

        svc.pool.lane_call = failing_lane_call
        first = await svc.submit(ask(b))
        sent = []
        real_handle = svc.pool.backend.workers[1].handle

        def recorded_handle(msg):
            sent.append(msg)
            return real_handle(msg)

        svc.pool.backend.workers[1].handle = recorded_handle
        again = await svc.submit(ask(b))
        glob = svc.programs["family"].global_store.snapshot()
        return first, again, sent, glob, mirror_of(svc, 1).snapshot()

    first, again, sent, glob, mirror = run_service(body, n_workers=2)
    assert not first.ok and "sync lost" in first.error
    assert again.ok and len(sent) == 1
    assert sent[0].load is not None and sent[0].sync.entries == glob
    assert mirror == glob


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_a_request_costs_one_lane_call(backend):
    """Everything a request needs rides on its one ``Query``: a new
    session's first uncached query after a merge (store sync, session
    open) and a first request on a fresh lane (program load, the whole
    store, session open) each cost one lane call."""

    async def body(svc):
        a, b = lane_sessions(svc, 2)
        again = next(f"v{i}" for i in range(100) if svc.router.lane_for(f"v{i}") == 0)

        async def calls(session: str, lane: int) -> int:
            before = svc.pool.lane_stats()[lane]["calls"]
            assert (await svc.submit(ask(session))).ok
            return svc.pool.lane_stats()[lane]["calls"] - before

        await calls(a, 0)
        await svc.end_session("family", a)
        assert len(svc.programs["family"].global_store) > 0
        return await calls(again, 0), await calls(b, 1)

    assert run_service(body, backend, n_workers=2) == (1, 1)
