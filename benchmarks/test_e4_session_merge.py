"""E4 — Conservative vs strong vs no merge across sessions (§5 ablation).

Three policies for propagating session learning into the global store:

* **none** — every session starts cold;
* **strong** — local results overwrite globals outright;
* **conservative** — the paper's rule: adopt/average, never let an
  infinity override a known weight.

Metric: expansions to the *first* solution (full enumeration is
order-insensitive, so only first-solution work reflects the weights).

Reproduction finding (measured below): with the §5 update rules, an
engine-generated session can never hold an infinity for a pointer the
global store knows — the failure rule skips KNOWN pointers and a
success retracts any local infinity — so conservative and strong
merges coincide on well-formed sessions.  The conservative rule is a
*safety net*: we demonstrate it by injecting a corrupted session (a
concurrent writer blindly marking pointers infinite), after which the
conservative store still answers with warm-start work while the strong
store has poisoned its best pointer.

Averaging (the third §5 case) needs two sessions that learn the same
pointers concurrently.  A session merges only the keys it touched, and
the update rules write only UNKNOWN or INFINITE pointers, so serial
sessions of one engine never touch a key the global store already knows:
their merges adopt and never average.  Two engines that share one global
store and open their sessions at the same generation do learn the same
keys, and the second merge averages what the first adopted.
"""

from conftest import emit

from repro.core import BLogConfig, BLogEngine
from repro.ortree import ArcKey
from repro.weights import WeightStore, plan_merge
from repro.workloads import comb_tree, scaled_family


def run_sessions(merge: str, n_rounds: int = 4):
    """Alternate two query mixes; report to-first work per session."""
    wl = comb_tree(teeth=8, tooth_depth=6)
    eng = BLogEngine(wl.program, BLogConfig(n=8, a=16, max_depth=32))
    work = []
    for _ in range(n_rounds):
        eng.begin_session()
        r = eng.query(wl.query, max_solutions=1)
        work.append(r.expansions_to_first)
        if merge == "none":
            eng.sessions.abort_session()
        else:
            eng.end_session(conservative=(merge == "conservative"))
    return work


def test_e4_merge_policies(benchmark):
    def run():
        return {
            "none": run_sessions("none"),
            "strong": run_sessions("strong"),
            "conservative": run_sessions("conservative"),
        }

    results = benchmark(run)
    rows = [
        {
            "policy": policy,
            "s1": series[0],
            "s2": series[1],
            "s3": series[2],
            "s4": series[3],
            "total": sum(series),
        }
        for policy, series in results.items()
    ]
    emit(
        "E4",
        "merge policy ablation, comb first-solution work per session",
        rows,
    )
    by = {r["policy"]: r for r in rows}
    # merged knowledge makes later sessions cheap; cold starts stay flat
    assert by["conservative"]["s4"] < by["none"]["s4"]
    # engine-generated sessions: strong == conservative (the invariant)
    assert by["conservative"]["total"] == by["strong"]["total"]


def test_e4_corrupted_session_safety(benchmark):
    """Inject a rogue local store full of infinities over known-good
    pointers; conservative merging shrugs it off, strong merging
    poisons the warm start."""
    wl = comb_tree(teeth=8, tooth_depth=6)

    def learn_store():
        eng = BLogEngine(wl.program, BLogConfig(n=8, a=16, max_depth=32))
        eng.begin_session()
        eng.query(wl.query, max_solutions=1)
        eng.end_session()
        return eng.sessions.global_store

    def corrupt(store: WeightStore) -> WeightStore:
        rogue = store.copy()
        for key in list(rogue.keys()):
            rogue.set_infinite(key)
        return rogue

    def to_first_with(store: WeightStore) -> int:
        eng = BLogEngine(
            wl.program, BLogConfig(n=8, a=16, max_depth=32), global_store=store
        )
        return eng.query(wl.query, max_solutions=1, update_weights=False).expansions_to_first

    def run():
        good_a = learn_store()
        good_b = learn_store()
        rogue = corrupt(good_a)
        delta, cons_report = plan_merge(good_a, rogue.snapshot())
        good_a.apply_delta(delta)
        delta, _ = plan_merge(good_b, corrupt(good_b).snapshot(), conservative=False)
        good_b.apply_delta(delta)
        return (
            to_first_with(learn_store()),  # healthy warm start
            to_first_with(good_a),  # conservative after corruption
            to_first_with(good_b),  # strong after corruption
            cons_report,
        )

    healthy, conservative, strong, report = benchmark(run)
    emit(
        "E4",
        "corrupted-session injection: first-solution work after merge",
        [
            {"store": "healthy warm", "to_first": healthy},
            {"store": "conservative merge of rogue", "to_first": conservative},
            {"store": "strong merge of rogue", "to_first": strong},
        ],
    )
    emit(
        "E4",
        "conservative merge audit of the rogue session",
        [
            {
                "suppressed_infinities": report.suppressed_infinities,
                "adopted": report.adopted,
            }
        ],
    )
    assert report.suppressed_infinities > 0
    assert conservative == healthy  # known weights survived
    assert strong >= conservative  # poisoning can only hurt


FAMILY = scaled_family(4, 2, 2, seed=10)
FAMILY_QUERIES = [f"anc({FAMILY.roots[0]}, D)", f"gf({FAMILY.roots[0]}, G)"]
FAMILY_CONFIG = BLogConfig(n=16, a=16, max_depth=64)


def audit_rows(reports):
    return [
        {
            "session": i + 1,
            "adopted": r.adopted,
            "averaged": r.averaged,
            "retracted": r.retracted,
            "suppressed_inf": r.suppressed_infinities,
        }
        for i, r in enumerate(reports)
    ]


def test_e4_averaging_across_sessions(benchmark):
    """Serial sessions of one engine: the first adopts what it learns;
    later sessions touch no key the global store knows, so nothing is
    averaged (the touched-keys invariant)."""

    def run():
        eng = BLogEngine(FAMILY.program, FAMILY_CONFIG)
        reports = []
        for _ in range(3):
            eng.begin_session()
            for q in FAMILY_QUERIES:
                eng.query(q)
            reports.append(eng.end_session())
        return reports

    rows = audit_rows(benchmark(run))
    emit("E4", "conservative-merge audit across sessions", rows)
    assert rows[0]["adopted"] > 0
    # serial sessions never touch a key the global store already knows
    assert all(r["averaged"] == 0 for r in rows)
    # engine-generated sessions never need suppression (the invariant)
    assert all(r["suppressed_inf"] == 0 for r in rows)


def test_e4_averaging_concurrent_sessions(benchmark):
    """α-averaging (§5's 'averaging of modifications'): two engines share
    one global store and open sessions at the same generation; the
    second merge averages the keys the first adopted."""

    def run():
        store = WeightStore(n=FAMILY_CONFIG.n, a=FAMILY_CONFIG.a)
        engines = [
            BLogEngine(FAMILY.program, FAMILY_CONFIG, global_store=store)
            for _ in range(2)
        ]
        for eng in engines:
            eng.begin_session()
        for eng in engines:
            for q in FAMILY_QUERIES:
                eng.query(q)
        return [eng.end_session() for eng in engines]

    rows = audit_rows(benchmark(run))
    emit("E4", "conservative-merge audit, two concurrent sessions", rows)
    first, second = rows
    assert first["adopted"] > 0 and first["averaged"] == 0
    assert 0 < second["averaged"] <= first["adopted"]
    assert all(r["suppressed_inf"] == 0 for r in rows)
