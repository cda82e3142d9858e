"""Service golden: answers, merges and stores are pinned, per backend.

A seeded multi-session workload (the figure-1 family and nrev, answer
cache off) runs in two rounds on a real :class:`BLogService`:

* round 1 — every session runs its queries (sessions concurrently,
  each session's queries in order), then every session is merged, one
  at a time in sorted order;
* round 2 — fresh sessions open against the stores round 1 learned
  (so lanes catch their store mirrors up by delta), run, and merge.

Each run is compared, field by field, against
``golden/service_differential.json``:

* every request's answer multiset;
* every ``end_session``'s :class:`~repro.weights.session.MergeReport`;
* each program's global store after each round: entries (in store
  order) and the store generation.

Both lane backends must reproduce the same golden, under both merge
policies.  A differential test between the two backends alone cannot
prove behaviour held once they share their code; this file can, since
the golden was recorded before the backends were unified.  To re-record
it deliberately (only when a change is *meant* to alter service
behaviour)::

    PYTHONPATH=src python tests/test_service_golden.py --record
"""

from __future__ import annotations

import asyncio
import json
import random
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.service import BLogService, QueryRequest
from repro.weights.persist import store_to_dict
from repro.workloads import family_program, nrev_program

GOLDEN = Path(__file__).parent / "golden" / "service_differential.json"
BACKENDS = ("thread", "process")
POLICIES = ("conservative", "strong")

#: round 1 asks about part of the family; round 2 asks about all of it,
#: so its sessions learn arcs round 1 never reached
FAMILY_QUERIES = (
    ["gf(sam, G)", "f(sam, Y)", "f(larry, Y)", "gf(nobody, G)"],
    ["gf(sam, G)", "gf(curt, G)", "f(sam, Y)", "gm(bertha, G)", "gm(M, G)", "gf(X, G)"],
)
NREV_QUERIES = (
    ["nrev([a,b,c], R)", "nrev([], R)"],
    ["nrev([a,b,c], R)", "nrev([a,b,c,d,e], R)", "nrev([x|T], R)"],
)


def build_plan(
    seed: int, rnd: int, n_sessions: int = 5, queries_per_session: int = 6
) -> dict:
    """``{session: [(program, query, max_solutions), ...]}`` of one round,
    seeded."""
    rng = random.Random(seed)
    plan = {}
    for s in range(n_sessions):
        queries = []
        for _ in range(queries_per_session):
            if rng.random() < 0.25:
                max_solutions = 2 if rng.random() < 0.3 else None
                queries.append(("nrev", rng.choice(NREV_QUERIES[rnd]), max_solutions))
            else:
                max_solutions = 1 if rng.random() < 0.2 else None
                queries.append(("family", rng.choice(FAMILY_QUERIES[rnd]), max_solutions))
        plan[f"s{seed}-{s}"] = queries
    return plan


def _stores(svc: BLogService) -> dict:
    return {
        name: {
            "generation": entry.global_store.generation,
            "entries": store_to_dict(entry.global_store)["entries"],
        }
        for name, entry in sorted(svc.programs.items())
    }


async def _round(svc: BLogService, plan: dict, conservative: bool) -> dict:
    answers: dict[str, list] = {}

    async def session_task(session: str, queries: list) -> None:
        for i, (program, query, max_solutions) in enumerate(queries):
            resp = await svc.submit(
                QueryRequest(
                    program, query, session=session, cache=False,
                    max_solutions=max_solutions,
                )
            )
            assert resp.ok, f"{session}#{i} failed: {resp.error}"
            answers[f"{session}#{i}"] = sorted(
                sorted(a.items()) for a in resp.answers
            )

    await asyncio.gather(*(session_task(s, qs) for s, qs in sorted(plan.items())))
    merges = {}
    for session in sorted(plan):
        for program in ("family", "nrev"):
            report = await svc.end_session(program, session, conservative=conservative)
            merges[f"{program}/{session}"] = (
                asdict(report) if report is not None else None
            )
    return {"answers": answers, "merges": merges, "stores": _stores(svc)}


async def run_case(backend: str, policy: str) -> dict:
    svc = BLogService(
        {"family": family_program(), "nrev": nrev_program()},
        n_workers=3,
        max_pending=256,
        backend=backend,
    )
    await svc.start()
    try:
        conservative = policy == "conservative"
        rounds = [
            await _round(svc, build_plan(seed, rnd), conservative)
            for rnd, seed in enumerate((5, 8))
        ]
    finally:
        await svc.stop()
    # through JSON, so tuples and lists compare as recorded
    return json.loads(json.dumps({"rounds": rounds}))


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("backend", BACKENDS)
def test_service_matches_golden(golden, backend, policy):
    want = golden[policy]
    got = asyncio.run(run_case(backend, policy))
    assert len(got["rounds"]) == len(want["rounds"])
    for r, (g, w) in enumerate(zip(got["rounds"], want["rounds"])):
        assert g["answers"] == w["answers"], f"round {r}: answers differ"
        assert g["merges"] == w["merges"], f"round {r}: merge reports differ"
        assert g["stores"] == w["stores"], f"round {r}: global stores differ"


def test_golden_workload_learns_and_merges(golden):
    """The pinned workload is not vacuous: every round merges sessions
    that learned something, and round 2 starts from learned stores."""
    for policy in POLICIES:
        rounds = golden[policy]["rounds"]
        for rnd in rounds:
            assert any(m and m["adopted"] for m in rnd["merges"].values())
        gen1 = rounds[0]["stores"]["family"]["generation"]
        assert gen1 > 0
        assert rounds[1]["stores"]["family"]["generation"] > gen1


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_service_golden.py --record")
    recorded = {}
    for policy in POLICIES:
        runs = {b: asyncio.run(run_case(b, policy)) for b in BACKENDS}
        if runs["thread"] != runs["process"]:
            sys.exit(f"{policy}: the backends disagree; not recording")
        recorded[policy] = runs["thread"]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
