"""The weight store's generation counter (serving-layer cache support).

The counter lets the answer cache in :mod:`repro.service` detect
"weights moved" — in particular after an end-of-session merge — with a
single integer compare instead of deep-comparing stores.
"""

from repro.ortree.tree import ArcKey
from repro.weights.session import plan_merge
from repro.weights.store import WeightStore


def ptr(i: int) -> ArcKey:
    return ArcKey("pointer", (("p", 1, i), i, ("q", 1)))


def builtin() -> ArcKey:
    return ArcKey("builtin", (("is", 2),))


class TestGenerationCounter:
    def test_fresh_store_starts_at_zero(self):
        assert WeightStore().generation == 0

    def test_set_known_bumps(self):
        s = WeightStore()
        s.set_known(ptr(1), 3.0)
        assert s.generation == 1
        s.set_known(ptr(1), 4.0)  # overwrite still counts as a mutation
        assert s.generation == 2

    def test_set_infinite_bumps(self):
        s = WeightStore()
        s.set_infinite(ptr(1))
        assert s.generation == 1

    def test_builtin_writes_are_ignored(self):
        s = WeightStore()
        s.set_known(builtin(), 5.0)
        s.set_infinite(builtin())
        assert s.generation == 0
        assert len(s) == 0

    def test_forget_bumps_only_when_present(self):
        s = WeightStore()
        s.forget(ptr(1))  # nothing to drop
        assert s.generation == 0
        s.set_known(ptr(1), 2.0)
        s.forget(ptr(1))
        assert s.generation == 2

    def test_clear_bumps_only_when_nonempty(self):
        s = WeightStore()
        s.clear()
        assert s.generation == 0
        s.set_known(ptr(1), 2.0)
        s.clear()
        assert s.generation == 2

    def test_copy_carries_generation_then_diverges(self):
        s = WeightStore()
        s.set_known(ptr(1), 2.0)
        local = s.copy()
        assert local.generation == s.generation == 1
        local.set_infinite(ptr(2))
        assert local.generation == 2
        assert s.generation == 1  # parent untouched

    def test_monotone_never_decreases(self):
        s = WeightStore()
        seen = [s.generation]
        s.set_known(ptr(1), 1.0)
        seen.append(s.generation)
        s.set_infinite(ptr(2))
        seen.append(s.generation)
        s.forget(ptr(1))
        seen.append(s.generation)
        assert seen == sorted(seen)


class TestMergeBumpsGeneration:
    def test_session_merge_bumps_global(self):
        glob = WeightStore()
        local = glob.copy()
        local.set_known(ptr(1), 3.0)
        local.set_infinite(ptr(2))
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
