"""Unit tests for the §5 success/failure update rules."""

import pytest

from repro.ortree import ArcKey, OrArc
from repro.weights import WeightStore, apply_outcome, on_failure, on_success

from .store_writes import put_infinite, put_known


def arcs(*ids, kind="pointer"):
    """A chain of arcs root->leaf with the given key ids."""
    return [
        OrArc(parent=i, child=i + 1, key=ArcKey(kind, (0, 0, k)), weight=0.0)
        for i, k in enumerate(ids)
    ]


def key(i):
    return ArcKey("pointer", (0, 0, i))


class TestFailureRule:
    def test_blames_unknown_nearest_leaf(self):
        store = WeightStore(n=8, a=4)
        chain = arcs(1, 2, 3)
        log = on_failure(store, chain)
        assert log.kind == "failure"
        assert log.set_infinite == [key(3)]
        assert store.is_infinite(key(3))
        assert store.is_unknown(key(1))

    def test_skips_known_arcs(self):
        store = WeightStore(n=8, a=4)
        put_known(store, key(3), 2.0)  # leafmost is known
        log = on_failure(store, arcs(1, 2, 3))
        assert log.set_infinite == [key(2)]

    def test_noop_when_chain_already_infinite(self):
        store = WeightStore(n=8, a=4)
        put_infinite(store, key(2))
        log = on_failure(store, arcs(1, 2, 3))
        assert log.kind == "noop"
        assert store.is_unknown(key(3))

    def test_all_known_failed_chain_is_anomaly(self):
        store = WeightStore(n=8, a=4)
        for i in (1, 2):
            put_known(store, key(i), 1.0)
        log = on_failure(store, arcs(1, 2))
        assert log.kind == "noop"
        assert log.anomaly

    def test_builtin_arcs_transparent(self):
        store = WeightStore(n=8, a=4)
        chain = arcs(1) + arcs(9, kind="builtin") + arcs(2)
        log = on_failure(store, chain)
        assert log.set_infinite == [key(2)]

    def test_duplicate_arc_counted_once(self):
        store = WeightStore(n=8, a=4)
        chain = arcs(1, 2, 1)  # key 1 appears twice
        log = on_failure(store, chain)
        # nearest the leaf among distinct keys in chain order: key 2
        assert log.set_infinite == [key(2)]


class TestSuccessRule:
    def test_distributes_n_over_unknowns(self):
        store = WeightStore(n=12, a=4)
        log = on_success(store, arcs(1, 2, 3))
        assert log.kind == "success"
        for i in (1, 2, 3):
            assert store.weight(key(i)) == 4.0
        assert sum(w for _, w in log.set_known) == 12.0

    def test_accounts_for_existing_known(self):
        store = WeightStore(n=12, a=4)
        put_known(store, key(1), 6.0)
        on_success(store, arcs(1, 2, 3))
        assert store.weight(key(2)) == 3.0
        assert store.weight(key(3)) == 3.0
        # the whole chain now sums to N
        assert sum(store.weight(key(i)) for i in (1, 2, 3)) == 12.0

    def test_resets_infinite_arcs(self):
        store = WeightStore(n=12, a=4)
        put_infinite(store, key(2))
        on_success(store, arcs(1, 2))
        assert store.is_known(key(2))
        assert store.weight(key(2)) == 6.0

    def test_overshoot_clamps_to_zero_with_anomaly(self):
        store = WeightStore(n=10, a=4)
        put_known(store, key(1), 7.0)
        put_known(store, key(2), 7.0)  # M=14 > N=10
        log = on_success(store, arcs(1, 2, 3))
        assert log.anomaly
        assert store.weight(key(3)) == 0.0

    def test_all_known_chain_is_noop(self):
        store = WeightStore(n=10, a=4)
        put_known(store, key(1), 5.0)
        put_known(store, key(2), 5.0)
        log = on_success(store, arcs(1, 2))
        assert log.kind == "noop"
        assert log.set_known == []

    def test_solution_chain_sums_to_n(self):
        """Invariant: after a success update (no anomaly), the chain's
        total weight equals N."""
        store = WeightStore(n=16, a=8)
        chain = arcs(1, 2, 3, 4)
        put_known(store, key(2), 4.0)
        log = on_success(store, chain)
        assert not log.anomaly
        total = sum(store.weight(key(i)) for i in (1, 2, 3, 4))
        assert total == pytest.approx(16.0)

    def test_duplicate_arc_single_update(self):
        store = WeightStore(n=12, a=4)
        chain = arcs(1, 2, 1)
        on_success(store, chain)
        # two distinct keys share N equally
        assert store.weight(key(1)) == 6.0
        assert store.weight(key(2)) == 6.0


class TestDispatch:
    def test_apply_outcome_success(self):
        store = WeightStore(n=8, a=4)
        log = apply_outcome(store, arcs(1), solved=True)
        assert log.kind == "success"

    def test_apply_outcome_failure(self):
        store = WeightStore(n=8, a=4)
        log = apply_outcome(store, arcs(1), solved=False)
        assert log.kind == "failure"


class TestAdaptiveBehaviour:
    def test_failure_then_success_retracts_infinity(self):
        """§5: 'If a successful query is found, the next search will try
        this path early' — a success on a previously failed pointer
        retracts the infinity."""
        store = WeightStore(n=8, a=4)
        on_failure(store, arcs(1, 2))
        assert store.is_infinite(key(2))
        on_success(store, arcs(1, 2))
        assert store.is_known(key(2))
        assert store.weight(key(2)) < store.unknown_value

    def test_learned_ordering(self):
        """Failed pointers end up heavier than successful ones."""
        store = WeightStore(n=8, a=4)
        on_success(store, arcs(1, 2))
        on_failure(store, arcs(3, 4))
        good = max(store.weight(key(1)), store.weight(key(2)))
        bad = store.weight(key(4))
        assert bad > good
