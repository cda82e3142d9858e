"""Unit tests for sessions and the conservative merge (§5)."""

import pytest

from repro.ortree import ArcKey
from repro.weights import (
    SessionManager,
    WeightState,
    WeightStore,
    merge_conservative,
    merge_strong,
)


def key(i):
    return ArcKey("pointer", (0, 0, i))


class TestConservativeMerge:
    def test_unknown_local_leaves_global(self):
        g, l = WeightStore(), WeightStore()
        g.set_known(key(1), 3.0)
        report = merge_conservative(g, l.snapshot())
        assert g.weight(key(1)) == 3.0
        assert report.adopted == report.averaged == 0

    def test_adopt_known_into_unknown(self):
        g, l = WeightStore(), WeightStore()
        l.set_known(key(1), 4.0)
        report = merge_conservative(g, l.snapshot())
        assert g.weight(key(1)) == 4.0
        assert report.adopted == 1

    def test_adopt_infinity_into_unknown(self):
        g, l = WeightStore(), WeightStore()
        l.set_infinite(key(1))
        report = merge_conservative(g, l.snapshot())
        assert g.is_infinite(key(1))
        assert report.adopted == 1

    def test_infinity_never_overrides_known(self):
        """The paper's explicit rule: 'no infinities will override
        previous non-infinite weights'."""
        g, l = WeightStore(), WeightStore()
        g.set_known(key(1), 2.0)
        l.set_infinite(key(1))
        report = merge_conservative(g, l.snapshot())
        assert g.is_known(key(1))
        assert g.weight(key(1)) == 2.0
        assert report.suppressed_infinities == 1

    def test_known_blend_averages(self):
        g, l = WeightStore(), WeightStore()
        g.set_known(key(1), 2.0)
        l.set_known(key(1), 6.0)
        report = merge_conservative(g, l.snapshot(), alpha=0.5)
        assert g.weight(key(1)) == pytest.approx(4.0)
        assert report.averaged == 1

    def test_alpha_one_adopts_local(self):
        g, l = WeightStore(), WeightStore()
        g.set_known(key(1), 2.0)
        l.set_known(key(1), 6.0)
        merge_conservative(g, l.snapshot(), alpha=1.0)
        assert g.weight(key(1)) == pytest.approx(6.0)

    def test_success_retracts_global_infinity(self):
        g, l = WeightStore(), WeightStore()
        g.set_infinite(key(1))
        l.set_known(key(1), 1.0)
        report = merge_conservative(g, l.snapshot())
        assert g.is_known(key(1))
        assert report.retracted == 1

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            merge_conservative(WeightStore(), {}, alpha=0.0)
        with pytest.raises(ValueError):
            merge_conservative(WeightStore(), {}, alpha=1.5)

    def test_both_infinite_unchanged(self):
        g, l = WeightStore(), WeightStore()
        g.set_infinite(key(1))
        l.set_infinite(key(1))
        report = merge_conservative(g, l.snapshot())
        assert g.is_infinite(key(1))
        assert report.unchanged == 1


class TestStrongMerge:
    def test_infinity_overrides_known(self):
        g, l = WeightStore(), WeightStore()
        g.set_known(key(1), 2.0)
        l.set_infinite(key(1))
        merge_strong(g, l.snapshot())
        assert g.is_infinite(key(1))

    def test_local_known_wins(self):
        g, l = WeightStore(), WeightStore()
        g.set_known(key(1), 2.0)
        l.set_known(key(1), 9.0)
        merge_strong(g, l.snapshot())
        assert g.weight(key(1)) == 9.0


class TestSessionManager:
    def test_begin_copies_global(self):
        mgr = SessionManager(WeightStore(n=8, a=4))
        mgr.global_store.set_known(key(1), 3.0)
        local = mgr.begin_session()
        assert local.weight(key(1)) == 3.0
        local.set_known(key(1), 5.0)
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
        local.set_known(key(1), 4.0)
        report = mgr.end_session()
        assert mgr.global_store.weight(key(1)) == 4.0
        assert mgr.sessions_completed == 1
        assert mgr.merge_reports == [report]

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
        local.set_known(key(1), 4.0)
        mgr.abort_session()
        assert key(1) not in mgr.global_store
        assert not mgr.in_session

    def test_non_conservative_end(self):
        mgr = SessionManager(WeightStore(n=8, a=4))
        mgr.global_store.set_known(key(1), 2.0)
        local = mgr.begin_session()
        local.set_infinite(key(1))
        mgr.end_session(conservative=False)
        assert mgr.global_store.is_infinite(key(1))

    def test_averaging_across_sessions_converges(self):
        """Repeated sessions reporting the same local value pull the
        global weight toward it geometrically."""
        mgr = SessionManager(WeightStore(n=16, a=4), alpha=0.5)
        mgr.global_store.set_known(key(1), 0.0)
        for _ in range(6):
            local = mgr.begin_session()
            local.set_known(key(1), 8.0)
            mgr.end_session()
        assert mgr.global_store.weight(key(1)) == pytest.approx(8.0, abs=0.2)
