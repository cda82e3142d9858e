"""Paired CPU-time probe: one source tree against another, query by query.

    python3 benchmarks/paired_probe.py BASE CHANGE [--rounds N]

BASE and CHANGE are checkouts of this repository (``.`` for this one).
Each runs in one long-lived worker pinned to the lowest core this
process may use.  Every round sends each shape to both workers in turn,
and flips which worker goes first from one round to the next.  The
shapes are a 5-queens (all solutions) and an nrev/30 (first answer)
query, each with a fresh engine and session as the ``engine-solve``
benchmark builds them; ``load``: :meth:`Program.from_source` of the
perfbench-sized family program (77 KB of source); and ``hit``: 2,000
in-process ``BLogService.submit`` calls that the answer cache serves,
over 20 query texts, on a started thread-lane service holding that
program; and ``open``: 50 session open→query→close cycles on a started
one-lane thread service whose mirror holds 26,000 keys, each cycle an
uncached query in a new session, then its merge.  A worker times each
in CPU seconds.  Per shape the probe prints each side's min and
quartiles, and the median of the per-round ratios CHANGE/BASE: below 1
means CHANGE spends less CPU.  Pairing the two sides query by query
cancels the host's slow swings in speed.

Each worker also reports every run's work: for a query its expansions,
children generated and ``words_copied``; for ``load`` the clause count
and the summed size of the clauses; for ``hit`` the requests the cache
served and the answers they returned; for ``open`` the sessions opened
and the store entries shipped to the lane.  The probe prints them per shape
and exits with status 1 when the two sides did different work, or one
shape's work changed from one run to the next: a saving must not come
from doing less.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import os
import statistics
import subprocess
import sys
import time

SHAPES = ("queens5", "nrev30", "load", "hit", "open")
#: the work counts each shape reports, by column
_QUERY_WORK = ("expansions", "generated", "words_copied")
WORK = {"queens5": _QUERY_WORK, "nrev30": _QUERY_WORK, "load": ("clauses", "clause_size"),
        "hit": ("hits", "answers"), "open": ("sessions", "keys_shipped")}
#: cache hits per ``hit`` run
HITS = 2000
#: session cycles per ``open`` run, and the keys its lane's mirror holds
OPENS = 50
MIRROR_KEYS = 26_000


def worker(core: int) -> None:
    os.sched_setaffinity(0, {core})
    import repro.core.engine as engine_mod
    from repro.core import BLogConfig, BLogEngine
    from repro.logic.program import Program
    from repro.ortree.tree import ArcKey
    from repro.service import BLogService, QueryRequest
    from repro.weights.store import WeightStore
    from repro.workloads import NREV_SOURCE, nqueens_program, nqueens_query, scaled_family

    trees = []

    class Recorded(engine_mod.OrTree):
        """The engine's tree, kept for its ``words_copied``."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            trees.append(self)

    engine_mod.OrTree = Recorded

    nrev = f"nrev([{', '.join(str(v) for v in range(30))}], R)"
    shapes = {"queens5": (nqueens_program(5), nqueens_query(), None),
              "nrev30": (Program.from_source(NREV_SOURCE), nrev, 1)}
    instance = scaled_family(
        generations=6, children_per_couple=3, couples_per_generation=48, seed=1
    )
    family = instance.source
    config = BLogConfig(max_depth=1024)

    # ``hit``: a started service whose cache holds every text's answers
    texts = [f"f({dad}, Who)" for dad in sorted(set(instance.fathers.values()))[:10]]
    texts += [f"gf({root}, Who)" for root in instance.roots[:10]]
    loop = asyncio.new_event_loop()
    service = BLogService({"family": instance.program}, n_workers=2, backend="thread")
    loop.run_until_complete(service.start())
    for text in texts:
        loop.run_until_complete(service.submit(QueryRequest("family", text)))
    requests = [QueryRequest("family", texts[i % len(texts)]) for i in range(HITS)]

    async def hits() -> tuple[int, int]:
        served = answers = 0
        for request in requests:
            resp = await service.submit(request)
            served += resp.cached
            answers += len(resp.answers)
        return served, answers

    # ``open``: count the entries every store sync ships to a lane (a
    # delta with no base: merges into a global store carry one)
    shipped = [0]
    apply_delta = WeightStore.apply_delta

    def counted_apply(self, delta):
        if delta.base is None:
            shipped[0] += len(delta.entries)
        return apply_delta(self, delta)

    WeightStore.apply_delta = counted_apply

    async def opens() -> tuple[float, int, int]:
        """A fresh service each run, so every run does the same work; the
        first cycle ships the whole store and stays out of the timing."""
        svc = BLogService({"family": instance.program}, n_workers=1, backend="thread")
        await svc.start()
        store = svc.programs["family"].global_store
        for i in range(MIRROR_KEYS):
            store.set_known(ArcKey("pointer", (-1 - i, 0, i)), 1.0 + i % 7)

        async def cycle(i: int) -> None:
            session = f"s{i}"
            request = QueryRequest("family", texts[i % len(texts)], session=session, cache=False)
            assert (await svc.submit(request)).ok
            await svc.end_session("family", session)

        await cycle(-1)
        opened, shipped[0] = svc.router.sessions_opened, 0
        t0 = time.process_time()
        for i in range(OPENS):
            await cycle(i)
        seconds = time.process_time() - t0
        opened = svc.router.sessions_opened - opened
        await svc.stop()
        return seconds, opened, shipped[0]

    for line in sys.stdin:
        shape = line.strip()
        if shape == "open":
            seconds, opened, keys = loop.run_until_complete(opens())
            print(seconds, opened, keys, flush=True)
            gc.collect()
            continue
        if shape == "hit":
            t0 = time.process_time()
            served, answers = loop.run_until_complete(hits())
            seconds = time.process_time() - t0
            print(seconds, served, answers, flush=True)
            continue
        if shape == "load":
            t0 = time.process_time()
            loaded = Program.from_source(family)
            seconds = time.process_time() - t0
            size = sum(c.head.size + sum(g.size for g in c.body) for c in loaded)
            print(seconds, len(loaded), size, flush=True)
            # the next query starts from the same heap on both sides,
            # whatever the load left for the collector
            del loaded
            gc.collect()
            continue
        program, query, max_solutions = shapes[shape]
        t0 = time.process_time()
        engine = BLogEngine(program, config)
        engine.begin_session()
        result = engine.query(query, max_solutions=max_solutions)
        engine.end_session()
        seconds = time.process_time() - t0
        tree = trees.pop()
        print(seconds, result.expansions, result.generated, tree.words_copied, flush=True)
    loop.run_until_complete(service.stop())
    loop.close()


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--rounds", type=int, default=20)
    args = ap.parse_args()
    core = min(os.sched_getaffinity(0))
    sides = []
    for tree in (args.base, args.change):
        env = {**os.environ, "PYTHONPATH": os.path.join(os.path.abspath(tree), "src")}
        sides.append(subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--worker", str(core)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env))

    #: (shape, side) -> every run's work counts, as WORK names them
    work: dict[tuple[str, int], set] = {(shape, i): set() for shape in SHAPES for i in (0, 1)}

    def ask(i: int, shape: str) -> float:
        side = sides[i]
        side.stdin.write(shape + "\n")
        side.stdin.flush()
        seconds, *counts = side.stdout.readline().split()
        work[shape, i].add(tuple(int(c) for c in counts))
        return float(seconds)

    times = {(shape, i): [] for shape in SHAPES for i in (0, 1)}
    for shape in SHAPES:  # warm-up: first-use compilation stays out
        for i in (0, 1):
            ask(i, shape)
    for r in range(args.rounds):
        for shape in SHAPES:
            for i in ((0, 1) if r % 2 == 0 else (1, 0)):
                times[shape, i].append(ask(i, shape))
    for side in sides:
        side.stdin.close()
        side.wait()
    print(f"{'shape':8} {'side':7} {'min_ms':>8} {'q1_ms':>8} {'med_ms':>8} {'q3_ms':>8}")
    for shape in SHAPES:
        for i, name in enumerate(("base", "change")):
            ms = [t * 1000.0 for t in times[shape, i]]
            q1, med, q3 = statistics.quantiles(ms, n=4)
            print(f"{shape:8} {name:7} {min(ms):8.2f} {q1:8.2f} {med:8.2f} {q3:8.2f}")
        ratios = [c / b for b, c in zip(times[shape, 0], times[shape, 1])]
        won = sum(x < 1.0 for x in ratios)
        print(f"{shape:8} change/base median pair ratio x{statistics.median(ratios):.3f}"
              f" (change cheaper in {won}/{len(ratios)} rounds)")
    same = True
    for shape in SHAPES:
        print(f"{'shape':8} {'side':7}", *(f"{col:>12}" for col in WORK[shape]))
        for i, name in enumerate(("base", "change")):
            for counts in sorted(work[shape, i]):
                print(f"{shape:8} {name:7}", *(f"{n:12}" for n in counts))
        base, change = work[shape, 0], work[shape, 1]
        if len(base) != 1 or base != change:
            same = False
            print(f"{shape:8} WORK DIFFERS: each side must do one and the same work per query")
    if not same:
        sys.exit(1)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        worker(int(sys.argv[2]))
    else:
        main()
