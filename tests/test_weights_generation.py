"""The weight store's generation counter (serving-layer cache support).

The counter lets the answer cache in :mod:`repro.service` detect
"weights moved" — in particular after an end-of-session merge — with a
single integer compare instead of deep-comparing stores.
"""

import pytest

from repro.ortree.tree import ArcKey, OrArc
from repro.weights.session import plan_merge
from repro.weights.store import SessionStore, WeightStore
from repro.weights.update import on_failure, on_success

from .store_writes import put_infinite, put_known, tombstone


def ptr(i: int) -> ArcKey:
    return ArcKey("pointer", (("p", 1, i), i, ("q", 1)))


def chain(*ids: int) -> list[OrArc]:
    """Arcs root→leaf over ``ptr(i)``, a builtin step after the first."""
    keys = [ptr(i) for i in ids]
    keys.insert(1, ArcKey("builtin", (("is", 2),)))
    return [OrArc(parent=i, child=i + 1, key=k, weight=0.0) for i, k in enumerate(keys)]


def store_under_test(kind: str) -> WeightStore:
    """A plain store, or a session opened on one with a known entry."""
    base = WeightStore()
    put_known(base, ptr(99), 1.0)
    return base if kind == "plain" else SessionStore(base)


class TestGenerationCounter:
    def test_fresh_store_starts_at_zero(self):
        assert WeightStore().generation == 0

    def test_set_known_bumps(self):
        s = WeightStore()
        put_known(s, ptr(1), 3.0)
        assert s.generation == 1
        put_known(s, ptr(1), 4.0)  # overwrite still counts as a mutation
        assert s.generation == 2

    def test_set_infinite_bumps(self):
        s = WeightStore()
        put_infinite(s, ptr(1))
        assert s.generation == 1

    def test_copy_carries_generation_then_diverges(self):
        s = WeightStore()
        put_known(s, ptr(1), 2.0)
        local = s.copy()
        assert local.generation == s.generation == 1
        put_infinite(local, ptr(2))
        assert local.generation == 2
        assert s.generation == 1  # parent untouched

    def test_monotone_never_decreases(self):
        s = WeightStore()
        seen = [s.generation]
        put_known(s, ptr(1), 1.0)
        seen.append(s.generation)
        put_infinite(s, ptr(2))
        seen.append(s.generation)
        tombstone(s, ptr(1))
        seen.append(s.generation)
        assert seen == sorted(seen)


class TestMergeBumpsGeneration:
    def test_session_merge_bumps_global(self):
        glob = WeightStore()
        local = glob.copy()
        put_known(local, ptr(1), 3.0)
        put_infinite(local, ptr(2))
        before = glob.generation
        delta, _ = plan_merge(glob, local.snapshot())
        glob.apply_delta(delta)
        assert glob.generation > before

    def test_merge_that_learns_nothing_leaves_generation(self):
        glob = WeightStore()
        local = glob.copy()  # session ran no informative queries
        before = glob.generation
        delta, _ = plan_merge(glob, local.snapshot())
        glob.apply_delta(delta)
        assert glob.generation == before


@pytest.mark.parametrize("kind", ["plain", "session"])
class TestRuleUpdateGeneration:
    """A §5 rule commits one delta advancing the generation by one per
    key it writes: the answer cache's staleness check reads that."""

    def test_success_advances_by_resettable_keys(self, kind):
        s = store_under_test(kind)
        put_infinite(s, ptr(3))
        put_known(s, ptr(4), 2.0)
        before = s.generation
        log = on_success(s, chain(1, 2, 3, 4))
        assert len(log.set_known) == 3  # ptr(1), ptr(2) unknown, ptr(3) infinite
        assert s.generation == before + 3

    def test_failure_blaming_all_advances_by_unknowns(self, kind):
        s = store_under_test(kind)
        put_known(s, ptr(2), 2.0)
        before = s.generation
        log = on_failure(s, chain(1, 2, 3, 4), blame="all")
        assert log.set_infinite == [ptr(1), ptr(3), ptr(4)]
        assert s.generation == before + 3

    def test_noop_leaves_generation(self, kind):
        s = store_under_test(kind)
        put_infinite(s, ptr(2))
        put_known(s, ptr(1), 1.0)
        before = s.generation
        assert on_failure(s, chain(1, 2)).kind == "noop"  # already infinite
        assert on_success(s, chain(1, 99)).kind == "noop"  # all known
        assert s.generation == before


class TestSessionRuleDelta:
    def test_session_delta_lists_writes_in_chain_order(self):
        s = store_under_test("session")
        opened = s.generation
        on_success(s, chain(5, 1, 3))
        on_failure(s, chain(4, 2), blame="all")
        delta = s.delta()
        assert list(delta.entries) == [ptr(5), ptr(1), ptr(3), ptr(4), ptr(2)]
        assert (delta.base, delta.generation) == (opened, opened + 5)
