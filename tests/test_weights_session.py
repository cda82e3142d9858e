"""Unit tests for sessions and the conservative merge (§5)."""

import random

import pytest

from repro.core import BLogEngine
from repro.ortree import ArcKey
from repro.weights import (
    MergeReport,
    SessionManager,
    SessionStore,
    StoreDelta,
    WeightEntry,
    WeightState,
    WeightStore,
    plan_merge,
)
from repro.workloads import family_program

from .store_writes import put_infinite, put_known, tombstone


def key(i):
    return ArcKey("pointer", (0, 0, i))


def commit(g, entries, **kw):
    """Plan a merge into ``g`` and apply it, as a session end does."""
    delta, report = plan_merge(g, entries, **kw)
    g.apply_delta(delta)
    return report


class TestConservativeMerge:
    def test_unknown_local_leaves_global(self):
        g, l = WeightStore(), WeightStore()
        put_known(g, key(1), 3.0)
        report = commit(g, l.snapshot())
        assert g.weight(key(1)) == 3.0
        assert report.adopted == report.averaged == 0

    def test_adopt_known_into_unknown(self):
        g, l = WeightStore(), WeightStore()
        put_known(l, key(1), 4.0)
        report = commit(g, l.snapshot())
        assert g.weight(key(1)) == 4.0
        assert report.adopted == 1

    def test_adopt_infinity_into_unknown(self):
        g, l = WeightStore(), WeightStore()
        put_infinite(l, key(1))
        report = commit(g, l.snapshot())
        assert g.is_infinite(key(1))
        assert report.adopted == 1

    def test_infinity_never_overrides_known(self):
        """The paper's explicit rule: 'no infinities will override
        previous non-infinite weights'."""
        g, l = WeightStore(), WeightStore()
        put_known(g, key(1), 2.0)
        put_infinite(l, key(1))
        report = commit(g, l.snapshot())
        assert g.is_known(key(1))
        assert g.weight(key(1)) == 2.0
        assert report.suppressed_infinities == 1

    def test_known_blend_averages(self):
        g, l = WeightStore(), WeightStore()
        put_known(g, key(1), 2.0)
        put_known(l, key(1), 6.0)
        report = commit(g, l.snapshot(), alpha=0.5)
        assert g.weight(key(1)) == pytest.approx(4.0)
        assert report.averaged == 1

    def test_alpha_one_adopts_local(self):
        g, l = WeightStore(), WeightStore()
        put_known(g, key(1), 2.0)
        put_known(l, key(1), 6.0)
        commit(g, l.snapshot(), alpha=1.0)
        assert g.weight(key(1)) == pytest.approx(6.0)

    def test_success_retracts_global_infinity(self):
        g, l = WeightStore(), WeightStore()
        put_infinite(g, key(1))
        put_known(l, key(1), 1.0)
        report = commit(g, l.snapshot())
        assert g.is_known(key(1))
        assert report.retracted == 1

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            plan_merge(WeightStore(), {}, alpha=0.0)
        with pytest.raises(ValueError):
            plan_merge(WeightStore(), {}, alpha=1.5)
        with pytest.raises(ValueError):
            plan_merge(WeightStore(), {}, alpha=0.0, conservative=False)

    def test_both_infinite_unchanged(self):
        g, l = WeightStore(), WeightStore()
        put_infinite(g, key(1))
        put_infinite(l, key(1))
        report = commit(g, l.snapshot())
        assert g.is_infinite(key(1))
        assert report.unchanged == 1


class TestStrongMerge:
    def test_infinity_overrides_known(self):
        g, l = WeightStore(), WeightStore()
        put_known(g, key(1), 2.0)
        put_infinite(l, key(1))
        commit(g, l.snapshot(), conservative=False)
        assert g.is_infinite(key(1))

    def test_local_known_wins(self):
        g, l = WeightStore(), WeightStore()
        put_known(g, key(1), 2.0)
        put_known(l, key(1), 9.0)
        commit(g, l.snapshot(), conservative=False)
        assert g.weight(key(1)) == 9.0


class TestSessionManager:
    def test_begin_copies_global(self):
        mgr = SessionManager(WeightStore(n=8, a=4))
        put_known(mgr.global_store, key(1), 3.0)
        local = mgr.begin_session()
        assert local.weight(key(1)) == 3.0
        put_known(local, key(1), 5.0)
        assert mgr.global_store.weight(key(1)) == 3.0  # untouched

    def test_active_store_switches(self):
        mgr = SessionManager()
        assert mgr.active is mgr.global_store
        mgr.begin_session()
        assert mgr.active is mgr.local
        mgr.end_session()
        assert mgr.active is mgr.global_store

    def test_end_merges_and_counts(self):
        mgr = SessionManager(WeightStore(n=8, a=4), alpha=0.5)
        local = mgr.begin_session()
        put_known(local, key(1), 4.0)
        mgr.end_session()
        assert mgr.global_store.weight(key(1)) == 4.0
        assert mgr.sessions_completed == 1

    def test_nested_session_rejected(self):
        mgr = SessionManager()
        mgr.begin_session()
        with pytest.raises(RuntimeError):
            mgr.begin_session()

    def test_end_without_begin_rejected(self):
        with pytest.raises(RuntimeError):
            SessionManager().end_session()

    def test_abort_discards(self):
        mgr = SessionManager(WeightStore(n=8, a=4))
        local = mgr.begin_session()
        put_known(local, key(1), 4.0)
        mgr.abort_session()
        assert key(1) not in mgr.global_store
        assert not mgr.in_session

    def test_non_conservative_end(self):
        mgr = SessionManager(WeightStore(n=8, a=4))
        put_known(mgr.global_store, key(1), 2.0)
        local = mgr.begin_session()
        put_infinite(local, key(1))
        mgr.end_session(conservative=False)
        assert mgr.global_store.is_infinite(key(1))

    def test_averaging_across_sessions_converges(self):
        """Repeated sessions reporting the same local value pull the
        global weight toward it geometrically."""
        mgr = SessionManager(WeightStore(n=16, a=4), alpha=0.5)
        put_known(mgr.global_store, key(1), 0.0)
        for _ in range(6):
            local = mgr.begin_session()
            put_known(local, key(1), 8.0)
            mgr.end_session()
        assert mgr.global_store.weight(key(1)) == pytest.approx(8.0, abs=0.2)


class TestPlanMerge:
    def test_plan_writes_nothing(self):
        g, l = WeightStore(), WeightStore()
        put_known(g, key(1), 2.0)
        put_known(l, key(1), 6.0)
        put_known(l, key(2), 1.0)
        before, gen = g.snapshot(), g.generation
        delta, report = plan_merge(g, l.snapshot())
        assert g.snapshot() == before and g.generation == gen
        assert delta == StoreDelta(
            gen,
            gen + 2,
            {
                key(1): WeightEntry(WeightState.KNOWN, 4.0),
                key(2): WeightEntry(WeightState.KNOWN, 1.0),
            },
        )
        assert report.generation == delta.generation

    def test_unchanged_average_is_still_a_write(self):
        g = WeightStore()
        put_known(g, key(1), 5.0)
        delta, report = plan_merge(g, {key(1): WeightEntry(WeightState.KNOWN, 5.0)})
        assert report.averaged == 1
        assert delta.generation == g.generation + 1 and key(1) in delta.entries

    def test_engine_end_session_reports_the_store_generation(self):
        engine = BLogEngine(family_program())
        engine.begin_session()
        engine.query("gf(sam, G)")
        report = engine.end_session()
        assert report.adopted > 0
        assert report.generation == engine.sessions.global_store.generation > 0


# -- the in-place merges plan_merge replaced, kept as a reference ----------


def old_set_known(store, k, value):
    """The store setter these merges were written against: builtin keys
    are ignored and KNOWN values clamp at 0."""
    if k.kind != "builtin":
        put_known(store, k, max(0.0, value))


def old_set_infinite(store, k):
    if k.kind != "builtin":
        put_infinite(store, k)


def reference_conservative(global_store, entries, alpha=0.5):
    report = MergeReport()
    for k, local in entries.items():
        if local.state is WeightState.UNKNOWN:
            report.unchanged += 1
            continue
        glob = global_store.entry(k)
        if local.state is WeightState.INFINITE:
            if glob.state is WeightState.UNKNOWN:
                old_set_infinite(global_store, k)
                report.adopted += 1
            elif glob.state is WeightState.INFINITE:
                report.unchanged += 1
            else:
                report.suppressed_infinities += 1
            continue
        if glob.state is WeightState.UNKNOWN:
            old_set_known(global_store, k, local.value)
            report.adopted += 1
        elif glob.state is WeightState.INFINITE:
            old_set_known(global_store, k, local.value)
            report.retracted += 1
        else:
            old_set_known(global_store, k, (1.0 - alpha) * glob.value + alpha * local.value)
            report.averaged += 1
    report.generation = global_store.generation
    return report


def reference_strong(global_store, entries):
    report = MergeReport()
    for k, local in entries.items():
        if local.state is WeightState.UNKNOWN:
            report.unchanged += 1
        elif local.state is WeightState.INFINITE:
            old_set_infinite(global_store, k)
            report.adopted += 1
        else:
            old_set_known(global_store, k, local.value)
            report.adopted += 1
    report.generation = global_store.generation
    return report


def random_store(rng, keys):
    store = WeightStore(n=8, a=4)
    for k in rng.sample(keys, rng.randrange(len(keys))):
        roll = rng.random()
        if roll < 0.45:
            old_set_known(store, k, rng.uniform(-2.0, 20.0))
        elif roll < 0.8:
            old_set_infinite(store, k)
        else:
            old_set_known(store, k, 1.0)
            tombstone(store, k)
    return store


def random_entries(rng, keys):
    states = [
        WeightEntry(WeightState.UNKNOWN, 9.0),
        WeightEntry(WeightState.INFINITE, 32.0),
        WeightEntry(WeightState.INFINITE, 99.0),  # another store's encoding
    ]
    entries = {}
    for k in rng.sample(keys, rng.randrange(len(keys) + 1)):
        if rng.random() < 0.5:
            entries[k] = WeightEntry(WeightState.KNOWN, rng.uniform(-3.0, 20.0))
        else:
            entries[k] = rng.choice(states)
    return entries


class TestPlanMatchesInPlaceReference:
    """Seeded differential: plan-then-apply equals the old in-place
    merge in entries, generation, report and the journaled delta."""

    @pytest.mark.parametrize("seed", range(40))
    @pytest.mark.parametrize("conservative", [True, False])
    def test_plan_then_apply_equals_in_place(self, seed, conservative):
        rng = random.Random(seed)
        keys = [key(i) for i in range(12)] + [ArcKey("builtin", (("is", 2),))]
        for alpha in (0.1, 0.5, 0.75, 1.0):
            planned = random_store(rng, keys)
            reference = planned.copy()
            # the same in-place merge on an overlay, which records its writes
            touched = SessionStore(planned.copy())
            pre = planned.generation
            entries = random_entries(rng, keys)
            if conservative:
                want = reference_conservative(reference, entries, alpha)
                reference_conservative(touched, entries, alpha)
            else:
                want = reference_strong(reference, entries)
                reference_strong(touched, entries)
            delta, report = plan_merge(
                planned, entries, alpha=alpha, conservative=conservative
            )
            assert report == want
            assert delta.base == pre and delta.generation == reference.generation
            assert delta.entries == touched.delta().entries
            planned.apply_delta(delta)
            assert planned.snapshot() == reference.snapshot()
            assert list(planned.keys()) == list(reference.keys())
            assert planned.generation == reference.generation
