"""Unit tests for the weight store (§5 encodings)."""

import pickle

import pytest

from repro.ortree import ArcKey
from repro.weights import WeightState, WeightStore
from repro.weights.store import SessionStore, WeightEntry

from .store_writes import put_infinite, put_known, tombstone


def key(i: int) -> ArcKey:
    return ArcKey("pointer", (0, 0, i))


class TestEncodings:
    def test_unknown_default_is_n_plus_one(self):
        store = WeightStore(n=16, a=16)
        assert store.weight(key(1)) == 17.0
        assert store.state(key(1)) is WeightState.UNKNOWN

    def test_infinity_is_a_times_n(self):
        store = WeightStore(n=16, a=16)
        put_infinite(store, key(1))
        assert store.weight(key(1)) == 256.0
        assert store.is_infinite(key(1))

    def test_ordering_invariant(self):
        """known solution bound N < unknown N+1 < infinity A*N."""
        store = WeightStore(n=10, a=4)
        assert store.n < store.unknown_value < store.infinity_value

    def test_builtin_arcs_are_free(self):
        store = WeightStore()
        bk = ArcKey("builtin", (("is", 2),))
        assert store.weight(bk) == 0.0
        assert store.is_known(bk)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            WeightStore(n=0)
        with pytest.raises(ValueError):
            WeightStore(n=4, a=1)


class TestWrites:
    def test_set_known(self):
        store = WeightStore(n=8, a=4)
        put_known(store, key(1), 2.5)
        assert store.weight(key(1)) == 2.5
        assert store.is_known(key(1))

    def test_forget_returns_to_unknown(self):
        """A tombstone forgets its key: it reads UNKNOWN again."""
        store = WeightStore(n=8, a=4)
        put_known(store, key(1), 1.0)
        tombstone(store, key(1))
        assert store.is_unknown(key(1))
        assert store.weight(key(1)) == 9.0

    def test_clear(self):
        store = WeightStore()
        put_known(store, key(1), 1.0)
        put_infinite(store, key(2))
        tombstone(store, *store.keys())
        assert len(store) == 0

    def test_overwrite_infinite_with_known(self):
        store = WeightStore()
        put_infinite(store, key(1))
        put_known(store, key(1), 2.0)
        assert store.is_known(key(1))
        assert store.weight(key(1)) == 2.0


class TestCopies:
    def test_copy_is_independent(self):
        store = WeightStore(n=8, a=4)
        put_known(store, key(1), 1.0)
        local = store.copy()
        put_known(local, key(2), 3.0)
        put_infinite(local, key(1))
        assert store.is_known(key(1))
        assert key(2) not in store
        assert local.is_infinite(key(1))

    def test_copy_preserves_parameters(self):
        store = WeightStore(n=5, a=3)
        c = store.copy()
        assert c.n == 5 and c.a == 3

    def test_snapshot(self):
        store = WeightStore()
        put_known(store, key(1), 1.0)
        snap = store.snapshot()
        put_known(store, key(1), 9.0)
        assert snap[key(1)].value == 1.0

    def test_weight_fn_hook(self):
        store = WeightStore(n=8, a=4)
        put_known(store, key(1), 2.0)
        fn = store.weight_fn()
        assert fn(key(1)) == 2.0
        assert fn(key(99)) == 9.0

    def test_contains_and_keys(self):
        store = WeightStore()
        put_known(store, key(1), 1.0)
        assert key(1) in store
        assert key(2) not in store
        assert list(store.keys()) == [key(1)]

    def test_repr_summary(self):
        store = WeightStore(n=8, a=4)
        put_known(store, key(1), 1.0)
        put_infinite(store, key(2))
        assert "known=1" in repr(store)
        assert "infinite=1" in repr(store)


class TestOneMutator:
    @pytest.mark.parametrize("cls", [WeightStore, SessionStore])
    def test_apply_delta_is_the_only_writer(self, cls):
        for name in ("set_known", "set_infinite", "forget", "clear"):
            assert not hasattr(cls, name), name


class TestSlottedRecords:
    """``ArcKey`` and ``WeightEntry`` are frozen slotted dataclasses: they
    cross the lane pipe pickled, and must come back equal and hashing
    alike on every supported Python."""

    @pytest.mark.parametrize(
        "record",
        [
            ArcKey("pointer", (3, 1, 7)),
            ArcKey("goal", ("f(_C1, sam)", 4)),
            WeightEntry(WeightState.KNOWN, 2.5),
            WeightEntry(WeightState.INFINITE, 256.0),
        ],
        ids=repr,
    )
    def test_pickle_round_trip(self, record):
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(record, protocol))
            assert back == record and hash(back) == hash(record)
            assert type(back) is type(record)

    def test_no_instance_dict(self):
        for record in (key(1), WeightEntry(WeightState.UNKNOWN, 17.0)):
            assert not hasattr(record, "__dict__")
