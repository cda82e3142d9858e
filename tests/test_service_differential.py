"""Differential testing: thread lanes and process lanes must be twins.

The process backend re-implements the whole session lifecycle over IPC
— mirror sync on open, touched-keys delta on close — so the strongest
correctness statement available is *equivalence*: run the identical
seeded workload on both backends and demand

* identical answer multisets for every request, and
* identical post-merge global weight stores, entry for entry
  (generation counters aside — the two backends bump them on
  different events).

Anything the delta path drops, duplicates, or mis-merges shows up here
as a store diff; answers diverge if the child-side engine sees
different weights than the in-process one would.
"""

import asyncio
import random
import shutil

import pytest

from repro.core import BLogConfig, BLogEngine
from repro.logic import Program
from repro.service import BLogService, QueryRequest
from repro.weights.store import WeightState
from repro.weights.wal import DurableStore
from repro.workloads import family_program, nrev_program

FAMILY_QUERIES = [
    "gf(sam, G)",
    "gf(curt, G)",
    "f(sam, Y)",
    "f(larry, Y)",
    "gm(bertha, G)",
]
NREV_QUERY = "nrev([a,b,c,d,e], R)"


def build_plan(seed: int, n_sessions: int = 6, queries_per_session: int = 8):
    """A deterministic mixed workload: each session gets an ordered
    query list drawn from a seeded RNG (identical for both backends)."""
    rng = random.Random(seed)
    plan = {}
    for s in range(n_sessions):
        session = f"diff{s}"
        qs = []
        for _ in range(queries_per_session):
            if rng.random() < 0.2:
                qs.append(("nrev", NREV_QUERY))
            else:
                qs.append(("family", rng.choice(FAMILY_QUERIES)))
        plan[session] = qs
    return plan


async def run_workload(backend: str, plan: dict, conservative: bool = True):
    """Run one backend over the plan; return per-request answer
    multisets and the final global store snapshots."""
    svc = BLogService(
        {"family": family_program(), "nrev": nrev_program()},
        n_workers=3,
        max_pending=256,
        backend=backend,
    )
    await svc.start()
    try:
        answers = {}

        async def session_task(session, queries):
            # queries of one session run in order (the affinity
            # contract); distinct sessions run concurrently
            for i, (prog, q) in enumerate(queries):
                resp = await svc.submit(
                    QueryRequest(prog, q, session=session, cache=False)
                )
                assert resp.ok, f"{backend} {session}#{i} failed: {resp.error}"
                answers[(session, i)] = sorted(
                    tuple(sorted(a.items())) for a in resp.answers
                )

        await asyncio.gather(
            *[session_task(s, qs) for s, qs in sorted(plan.items())]
        )

        # merge deterministically: one session at a time, sorted order
        for session in sorted(plan):
            for prog in ("family", "nrev"):
                await svc.end_session(prog, session, conservative=conservative)

        stores = {
            name: entry.global_store for name, entry in svc.programs.items()
        }
        snapshots = {
            name: {
                key: (e.state, e.value)
                for key, e in store.snapshot().items()
                if e.state is not WeightState.UNKNOWN
            }
            for name, store in stores.items()
        }
        generations = {name: s.generation for name, s in stores.items()}
        return answers, snapshots, generations
    finally:
        await svc.stop()


@pytest.mark.parametrize("seed", [11, 97])
def test_backends_are_answer_and_store_identical(seed):
    plan = build_plan(seed)

    async def body():
        t = await run_workload("thread", plan)
        p = await run_workload("process", plan)
        return t, p

    (t_answers, t_stores, t_gens), (p_answers, p_stores, p_gens) = (
        asyncio.run(body())
    )

    # identical answer multisets, request for request
    assert set(t_answers) == set(p_answers)
    for key in sorted(t_answers):
        assert t_answers[key] == p_answers[key], f"answers diverge at {key}"

    # identical post-merge global stores, entry for entry
    assert set(t_stores) == set(p_stores)
    for name in t_stores:
        assert t_stores[name] == p_stores[name], (
            f"global store {name!r} diverges between backends"
        )
        # both backends actually learned something about family
        if name == "family":
            assert len(t_stores[name]) > 0
            assert t_gens[name] > 0 and p_gens[name] > 0


def test_backends_identical_under_strong_merge():
    """Same equivalence with conservative=False (adopt-all merges) —
    exercises the merge_strong path of close_remote."""
    plan = build_plan(23, n_sessions=4, queries_per_session=5)

    async def body():
        t = await run_workload("thread", plan, conservative=False)
        p = await run_workload("process", plan, conservative=False)
        return t, p

    (t_answers, t_stores, _), (p_answers, p_stores, _) = asyncio.run(body())
    assert t_answers == p_answers
    assert t_stores == p_stores


#: goals whose text does not parse back to the same term: an operator
#: term and a quoted capitalized atom
GOAL_SOURCE = "p(a-b, c).\np(X, d) :- q(X).\nq(a-b).\nq('A').\nr(1 - -1, 'A').\n"
GOAL_QUERIES = ["p(a-b, X)", "q(X)", "p(Y, d)", "r(X, 'A')"]


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_goal_policy_session_merges_and_recovers(backend, tmp_path):
    """Goal-policy arc keys embed terms: a session's delta carries them
    to the merge and the journal, and a restart recovers them."""
    config = BLogConfig(arc_key_policy="goal")
    program = Program.from_source(GOAL_SOURCE)
    library = BLogEngine(program, config)
    library.begin_session()
    for q in GOAL_QUERIES:
        library.query(q)
    library.end_session()
    expected = library.sessions.global_store.snapshot()
    assert any(k.kind == "goal" for k in expected)

    def service() -> BLogService:
        return BLogService(
            {"g": program}, config=config, n_workers=1, backend=backend, data_dir=tmp_path
        )

    async def body():
        svc = service()
        await svc.start()
        try:
            for q in GOAL_QUERIES:
                resp = await svc.submit(QueryRequest("g", q, session="s", cache=False))
                assert resp.ok, resp.error
            assert await svc.end_session("g", "s") is not None
            merged = svc.programs["g"].global_store.snapshot()
            # the journal alone (no checkpoint yet) recovers the merge
            shutil.copytree(tmp_path / "g", tmp_path / "copy")
            copy = DurableStore(tmp_path / "copy", n=config.n, a=config.a)
            journaled, info = copy.recover()
            copy.close()
            assert info.records_replayed == 1
        finally:
            await svc.stop()
        restarted = service()
        await restarted.start()
        try:
            recovered = restarted.programs["g"].global_store.snapshot()
        finally:
            await restarted.stop()
        return merged, journaled.snapshot(), recovered

    merged, journaled, recovered = asyncio.run(body())
    assert merged == expected
    assert journaled == expected
    assert recovered == expected
