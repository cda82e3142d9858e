"""Property-based answer-cache tests (seeded random, no extra deps).

Three properties the cache's correctness rests on, each checked over a
few hundred randomly generated cases from a seeded ``random.Random``
(deterministic — a failure reproduces by seed):

1. **Renaming invariance** — a re-ask of the same query under freshly
   renamed variables always hits the cache, and the served bindings
   come back under the *asker's* names with the same values.
2. **No collisions** — structurally distinct queries (different
   functors, constants, arities, or variable-sharing patterns) never
   share a cache key; renamings of the *same* structure always do.
3. **Generation guarding** — every effective weight-store mutation
   (a delta that writes anything) invalidates dependent entries;
   ineffective operations (a rule update or a merge that writes
   nothing) never do.
"""

import random

import pytest

from repro.logic.parser import parse_query
from repro.logic.terms import NIL, Atom, Int, Struct, Var, make_list
from repro.ortree.tree import ArcKey, OrArc
from repro.service import AnswerCache, MetricsRegistry, cache_key, canonical_query
from repro.weights.session import plan_merge
from repro.weights.store import WeightEntry, WeightState, WeightStore
from repro.weights.update import on_failure, on_success

from .store_writes import put_infinite, put_known, tombstone

# -- random query structures -------------------------------------------------

FUNCTORS = ["p", "q", "edge", "path", "link"]
CONSTANTS = ["a", "b", "c", "sam", "n1"]
VAR_POOL = [
    "X", "Y", "Z", "Who", "G", "Result", "Temp", "A1", "LongVariableName"
]


def random_structure(rng: random.Random) -> tuple:
    """A random conjunction *structure*: goals of (functor, args) where
    each arg is ("const", name) or ("var", slot) — slots index into a
    shared variable numbering, so sharing patterns are part of the
    structure.  The structure tuple itself is the identity two queries
    must share to be cache-equal."""
    n_goals = rng.randint(1, 3)
    n_slots = rng.randint(1, 4)
    goals = []
    for _ in range(n_goals):
        functor = rng.choice(FUNCTORS)
        arity = rng.randint(1, 3)
        args = tuple(
            ("var", rng.randrange(n_slots))
            if rng.random() < 0.6
            else ("const", rng.choice(CONSTANTS))
            for _ in range(arity)
        )
        goals.append((functor, args))
    return tuple(goals)


def render(structure: tuple, names: dict[int, str]) -> str:
    """Render a structure as query text under a slot→name mapping."""
    goals = []
    for functor, args in structure:
        rendered = [
            names[val] if kind == "var" else val for kind, val in args
        ]
        goals.append(f"{functor}({', '.join(rendered)})")
    return ", ".join(goals)


def normalize(structure: tuple) -> tuple:
    """Renumber variable slots in order of first appearance, so two
    specs that differ only in arbitrary slot numbering (and are thus
    alpha-equivalent queries) share one identity."""
    order: dict[int, int] = {}
    out = []
    for functor, args in structure:
        nargs = []
        for kind, val in args:
            if kind == "var":
                if val not in order:
                    order[val] = len(order)
                nargs.append(("var", order[val]))
            else:
                nargs.append(("const", val))
        out.append((functor, tuple(nargs)))
    return tuple(out)


def random_renaming(rng: random.Random, structure: tuple) -> dict[int, str]:
    """Distinct fresh names for every variable slot the structure uses."""
    slots = sorted(
        {val for _, args in structure for kind, val in args if kind == "var"}
    )
    names = rng.sample(VAR_POOL, len(slots))
    return dict(zip(slots, names))


# -- property 1: renaming invariance -----------------------------------------


class TestRenamingInvariance:
    def test_renamed_reasks_always_hit(self):
        """For hundreds of random structures: ask under one renaming,
        re-ask under another — same cache key, and the slot mapping
        recovers the answers under the second asker's names."""
        rng = random.Random(401)
        for case in range(300):
            structure = random_structure(rng)
            first = random_renaming(rng, structure)
            second = random_renaming(rng, structure)
            goals1 = parse_query(render(structure, first))
            goals2 = parse_query(render(structure, second))
            k1 = cache_key("prog", goals1, None)
            k2 = cache_key("prog", goals2, None)
            assert k1 == k2, (
                f"case {case}: renaming changed the key\n"
                f"  {render(structure, first)}\n  {render(structure, second)}"
            )
            # canonical slot order is the same, so a binding stored
            # under the first asker's slots re-keys to the second's
            _, names1 = canonical_query(goals1)
            _, names2 = canonical_query(goals2)
            assert len(names1) == len(names2)

    def test_end_to_end_hit_under_askers_names(self):
        """Through the real service: seeded random family re-asks under
        fresh names are cache hits with correctly re-keyed bindings."""
        import asyncio

        from repro.service import BLogService, QueryRequest
        from repro.workloads import family_program

        templates = [
            ("gf(sam, {})", {"den", "doug"}),
            ("gf(curt, {})", {"john"}),
            ("f(sam, {})", {"larry"}),
            ("f(larry, {})", {"den", "doug"}),
        ]
        rng = random.Random(402)

        async def body():
            svc = BLogService({"family": family_program()}, n_workers=2)
            await svc.start()
            try:
                for case in range(40):
                    template, expect = rng.choice(templates)
                    v1, v2 = rng.sample(VAR_POOL, 2)
                    first = await svc.submit(
                        QueryRequest(
                            "family", template.format(v1), session="p1"
                        )
                    )
                    again = await svc.submit(
                        QueryRequest(
                            "family", template.format(v2), session="p1"
                        )
                    )
                    assert first.ok and again.ok
                    assert again.cached, f"case {case}: re-ask missed"
                    got = sorted(a[v2] for a in again.answers)
                    assert got == sorted(expect), (
                        f"case {case}: wrong bindings under {v2}: {got}"
                    )
            finally:
                await svc.stop()

        asyncio.run(body())


# -- property 2: no collisions -----------------------------------------------


def reference_canonical(goals) -> tuple[str, tuple[str, ...]]:
    """canonical_query by renaming into new terms and str(): the
    recursive form it replaced, kept as the reference."""
    mapping: dict[int, Var] = {}
    names: list[str] = []

    def go(t):
        if isinstance(t, Var):
            if t.id not in mapping:
                names.append(t.name)
                mapping[t.id] = Var(f"_C{len(names)}", vid=-len(names))
            return mapping[t.id]
        if isinstance(t, Struct):
            return Struct(t.functor, tuple(go(a) for a in t.args))
        return t

    return ", ".join(str(go(g)) for g in goals), tuple(names)


def random_term(rng: random.Random, pool: list, depth: int):
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return rng.choice(pool + [Atom("a"), Atom("[]"), Int(-3), NIL])
    if roll < 0.6:
        items = [random_term(rng, pool, depth - 1) for _ in range(rng.randint(0, 3))]
        tail = NIL if rng.random() < 0.6 else random_term(rng, pool, depth - 1)
        return make_list(items, tail)
    args = [random_term(rng, pool, depth - 1) for _ in range(rng.randint(1, 3))]
    return Struct(rng.choice(["f", ".", "-"]), args)


class TestCanonicalText:
    def test_matches_the_renamed_terms_text(self):
        """Over random conjunctions (lists with and without tails,
        non-list '.' terms, shared and anonymous variables), the
        canonical text and names equal the reference's."""
        rng = random.Random(25)
        for _ in range(400):
            pool = [Var("X"), Var("Y"), Var("_"), Var("_"), Var("Who")]
            goals = tuple(random_term(rng, pool, 4) for _ in range(rng.randint(1, 3)))
            assert canonical_query(goals) == reference_canonical(goals)

    def test_a_long_list_needs_no_recursion(self):
        (goal,) = parse_query("len([" + ", ".join(["a"] * 5000) + "|T], N)")
        text, names = canonical_query((goal,))
        assert text == "len([" + ", ".join(["a"] * 5000) + "|_C1], _C2)"
        assert names == ("T", "N")


class TestNoCollisions:
    def test_distinct_structures_never_share_a_key(self):
        """Random pool of structures: distinct structures map to
        distinct cache keys (no collisions), while every renaming of
        one structure maps to its own key (stability)."""
        rng = random.Random(403)
        by_key: dict[tuple, tuple] = {}
        for case in range(400):
            raw = random_structure(rng)
            structure = normalize(raw)
            goals = parse_query(render(raw, random_renaming(rng, raw)))
            key = cache_key("prog", goals, None)
            seen = by_key.get(key)
            if seen is None:
                by_key[key] = structure
            else:
                assert seen == structure, (
                    f"case {case}: collision between distinct structures\n"
                    f"  {seen}\n  {structure}"
                )

    def test_max_solutions_and_program_partition_the_space(self):
        rng = random.Random(404)
        for _ in range(50):
            structure = random_structure(rng)
            goals = parse_query(render(structure, random_renaming(rng, structure)))
            keys = {
                cache_key(prog, goals, cap)
                for prog in ("p1", "p2")
                for cap in (None, 1, 5)
            }
            assert len(keys) == 6  # every (program, cap) is its own line

    def test_anonymous_mask_is_part_of_the_key(self):
        named = cache_key("p", parse_query("q(X, Y)"), None)
        half = cache_key("p", parse_query("q(X, _)"), None)
        anon = cache_key("p", parse_query("q(_, _)"), None)
        assert len({named, half, anon}) == 3


# -- property 3: generation guarding -----------------------------------------


def arc(i: int) -> ArcKey:
    return ArcKey("pointer", ("clause", i))


class TestGenerationGuarding:
    def test_effective_mutations_always_invalidate(self):
        """Any store write that changes state invalidates every cache
        entry filled under the pre-write generation."""
        rng = random.Random(405)
        for case in range(200):
            store = WeightStore()
            cache = AnswerCache(capacity=64, registry=MetricsRegistry())
            # pre-populate the store a little
            for i in range(rng.randint(0, 5)):
                put_known(store, arc(i), rng.uniform(0.0, 8.0))
            key = ("p", f"q{case}", (), None)
            cache.put(key, store.generation, [{"_C1": "a"}])
            assert cache.get(key, store.generation) is not None

            op = rng.randrange(3)
            if op == 0:
                put_known(store, arc(rng.randrange(8)), rng.uniform(0.0, 8.0))
            elif op == 1:
                put_infinite(store, arc(rng.randrange(8)))
            else:
                victim = arc(rng.randrange(8))
                if victim not in store:
                    put_known(store, victim, 1.0)  # make the drop effective
                tombstone(store, victim)
            assert cache.get(key, store.generation) is None, (
                f"case {case}: op {op} did not invalidate"
            )

    def test_ineffective_operations_never_invalidate(self):
        """No-ops — a failure on a chain already priced in, a success
        on an all-known chain, a merge that writes nothing — must not
        evict anything."""
        rng = random.Random(406)
        for case in range(200):
            store = WeightStore()
            n = rng.randint(0, 4)
            for i in range(n):
                put_known(store, arc(i), float(i))
            chain = [OrArc(i, i + 1, arc(i), 0.0) for i in range(n)]
            cache = AnswerCache(capacity=8, registry=MetricsRegistry())
            key = ("p", "q", (), None)
            cache.put(key, store.generation, [{"_C1": "a"}])

            op = rng.randrange(3)
            if op == 0:
                assert on_failure(store, chain).kind == "noop"
            elif op == 1:
                assert on_success(store, chain).kind == "noop"
            else:
                unknown = {arc(9): WeightEntry(WeightState.UNKNOWN, store.unknown_value)}
                delta, _ = plan_merge(store, unknown)
                store.apply_delta(delta)
            assert cache.get(key, store.generation) is not None, (
                f"case {case}: ineffective op {op} invalidated the entry"
            )

    def test_service_merge_invalidates_only_on_real_learning(self):
        """End to end: a session merge that adopted weights makes the
        cached answer stale; asking again refills under the new
        generation and subsequent re-asks hit again."""
        import asyncio

        from repro.service import BLogService, QueryRequest
        from repro.workloads import family_program

        async def body():
            svc = BLogService({"family": family_program()}, n_workers=2)
            await svc.start()
            try:
                first = await svc.submit(
                    QueryRequest("family", "gf(sam, G)", session="s1")
                )
                hit = await svc.submit(
                    QueryRequest("family", "gf(sam, Who)", session="s2")
                )
                report = await svc.end_session("family", "s1")
                stale = await svc.submit(
                    QueryRequest("family", "gf(sam, G)", session="s2")
                )
                refill = await svc.submit(
                    QueryRequest("family", "gf(sam, V)", session="s3")
                )
                return first, hit, report, stale, refill
            finally:
                await svc.stop()

        first, hit, report, stale, refill = asyncio.run(body())
        assert first.ok and not first.cached
        assert hit.cached
        assert report is not None and report.adopted + report.averaged > 0
        assert not stale.cached  # the merge's generation bump evicted it
        assert refill.cached  # refilled under the post-merge generation
        assert sorted(a["V"] for a in refill.answers) == ["den", "doug"]
