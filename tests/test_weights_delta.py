"""Weight-store delta serialization and the touched-keys merge.

The process-lane backend stands on three mechanisms added to the
weights layer — each pinned here at the unit level:

* ``delta_since`` — the per-key modification journal behind "ship
  deltas, not stores";
* ``StoreDelta`` / ``apply_delta`` — the typed delta lanes
  exchange, including UNKNOWN tombstones for dropped keys and the
  mirror's generation jump, and its JSON form on disk;
* ``SessionManager``'s touched-keys merge — only keys the session
  actually wrote participate in the end-of-session merge (the §5
  "separate buffer" of weight updates), never the stale copies it
  inherited at open.
"""

import json

import pytest

from repro.ortree.tree import ArcKey
from repro.weights.persist import DELTA_FORMAT, delta_from_dict, delta_to_dict
from repro.weights.session import SessionManager, plan_merge
from repro.weights.store import StoreDelta, WeightState, WeightStore


def arc(i: int) -> ArcKey:
    return ArcKey("pointer", (f"c{i}", 0, f"p{i}"))


class TestModifiedSince:
    def test_journal_tracks_writes(self):
        s = WeightStore()
        g0 = s.generation
        s.set_known(arc(1), 3.0)
        s.set_infinite(arc(2))
        assert set(s.delta_since(g0).entries) == {arc(1), arc(2)}
        g1 = s.generation
        s.set_known(arc(3), 1.0)
        assert set(s.delta_since(g1).entries) == {arc(3)}
        assert s.delta_since(s.generation).entries == {}

    def test_forget_and_clear_are_modifications(self):
        s = WeightStore()
        s.set_known(arc(1), 3.0)
        s.set_known(arc(2), 4.0)
        g = s.generation
        s.forget(arc(1))
        assert set(s.delta_since(g).entries) == {arc(1)}
        s.clear()
        assert set(s.delta_since(g).entries) == {arc(1), arc(2)}

    def test_copy_inherits_the_journal(self):
        s = WeightStore()
        s.set_known(arc(1), 3.0)
        c = s.copy()
        g = c.generation
        c.set_known(arc(2), 5.0)
        assert set(c.delta_since(g).entries) == {arc(2)}
        assert set(c.delta_since(0).entries) == {arc(1), arc(2)}
        assert s.delta_since(s.generation).entries == {}  # parent untouched


class TestDeltaRoundtrip:
    def test_full_delta_builds_an_identical_mirror(self):
        src = WeightStore(n=8.0, a=4)
        src.set_known(arc(1), 3.0)
        src.set_infinite(arc(2))
        delta = src.delta_since(None)  # the full entry set
        assert isinstance(delta, StoreDelta) and delta.base is None
        mirror = WeightStore(n=8.0, a=4)
        assert mirror.apply_delta(delta) == 2
        assert mirror.snapshot() == src.snapshot()
        assert mirror.generation == src.generation

    def test_incremental_delta_ships_only_whats_missing(self):
        src = WeightStore()
        src.set_known(arc(1), 3.0)
        mirror = WeightStore()
        mirror.apply_delta(src.delta_since(None))
        src.set_known(arc(2), 5.0)
        src.set_known(arc(1), 2.5)  # re-write: also newer than the sync
        delta = src.delta_since(mirror.generation)
        assert list(delta.entries) == [arc(1), arc(2)]  # journal order, no more
        mirror.apply_delta(delta)
        assert mirror.snapshot() == src.snapshot()
        # now current: the next delta is empty
        assert src.delta_since(mirror.generation).entries == {}

    def test_tombstones_propagate_removals(self):
        src = WeightStore()
        src.set_known(arc(1), 3.0)
        src.set_known(arc(2), 4.0)
        mirror = WeightStore()
        mirror.apply_delta(src.delta_since(None))
        src.forget(arc(1))
        delta = src.delta_since(mirror.generation)
        states = {e.state for e in delta.entries.values()}
        assert states == {WeightState.UNKNOWN}  # a pure tombstone
        mirror.apply_delta(delta)
        assert arc(1) not in mirror
        assert mirror.snapshot() == src.snapshot()

    def test_clear_tombstones_everything(self):
        src = WeightStore()
        src.set_known(arc(1), 3.0)
        src.set_infinite(arc(2))
        mirror = WeightStore()
        mirror.apply_delta(src.delta_since(None))
        src.clear()
        mirror.apply_delta(src.delta_since(mirror.generation))
        assert len(mirror) == 0

    def test_generation_jumps_to_the_source(self):
        src = WeightStore()
        for i in range(5):
            src.set_known(arc(i), float(i))
        mirror = WeightStore()
        mirror.set_known(arc(9), 1.0)  # the mirror's own counter: 1
        mirror.apply_delta(src.delta_since(3))
        assert mirror.generation == src.generation == 5
        assert src.delta_since(mirror.generation).entries == {}

    def test_delta_is_json_serializable(self):
        src = WeightStore()
        src.set_known(arc(1), 3.0)
        src.set_known(ArcKey("builtin", (("is", 2),)), 0.0)  # ignored write
        src.set_infinite(arc(2))
        src.set_known(arc(3), 1.0)
        g = src.generation
        src.forget(arc(3))
        delta = src.delta_since(0)
        wire = json.dumps(delta_to_dict(delta, src.n, src.a))
        data = json.loads(wire)
        assert data["format"] == DELTA_FORMAT and data["generation"] == src.generation
        assert delta_from_dict(data) == delta  # the tombstone included
        assert g  # (quiet the linters: g documents the pre-forget point)

    def test_bad_format_is_rejected(self):
        with pytest.raises(ValueError, match="format"):
            delta_from_dict({"format": "something-else", "entries": []})

    def test_merging_a_tombstone_leaves_the_global_entry(self):
        src = WeightStore()
        src.set_known(arc(1), 3.0)
        src.set_known(arc(2), 4.0)
        src.forget(arc(2))
        entries = src.delta_since(0).entries
        assert entries[arc(2)].state is WeightState.UNKNOWN
        # conservative-merging it into a global that knows arc(2)
        # adopts the live entry and leaves arc(2) as it was
        glob = WeightStore()
        glob.set_known(arc(2), 7.0)
        delta, report = plan_merge(glob, entries)
        glob.apply_delta(delta)
        assert report.adopted == 1 and report.unchanged == 1
        assert glob.weight(arc(1)) == 3.0 and glob.weight(arc(2)) == 7.0


class TestTouchedKeysMerge:
    def test_untouched_inherited_keys_do_not_remerge(self):
        """A session that wrote nothing merges nothing — even though its
        local store holds copies of every global entry.  Before the
        touched-keys merge this re-averaged every inherited copy (a
        no-op arithmetically, but generation-bumping and O(store))."""
        glob = WeightStore()
        glob.set_known(arc(1), 4.0)
        g = glob.generation
        mgr = SessionManager(glob)
        mgr.begin_session()
        report = mgr.end_session()
        assert report.adopted == 0 and report.averaged == 0
        assert glob.generation == g  # nothing merged → no invalidation

    def test_only_touched_keys_participate(self):
        """Keys the session wrote merge; inherited copies of keys some
        *other* merge moved meanwhile are not dragged back."""
        glob = WeightStore()
        glob.set_known(arc(1), 4.0)
        glob.set_known(arc(2), 10.0)
        mgr = SessionManager(glob)
        mgr.begin_session()
        mgr.local.set_known(arc(1), 2.0)  # touched by this session
        # a concurrent session's merge moves arc(2) in the global store;
        # this session still holds the stale 10.0 copy of it
        glob.set_known(arc(2), 6.0)
        mgr.end_session()  # conservative, alpha=0.5
        assert glob.weight(arc(1)) == pytest.approx(3.0)  # (4+2)/2
        assert glob.weight(arc(2)) == 6.0  # stale copy never re-averaged

    def test_touched_includes_forgets(self):
        glob = WeightStore()
        glob.set_known(arc(1), 4.0)
        mgr = SessionManager(glob)
        mgr.begin_session()
        mgr.local.forget(arc(1))
        report = mgr.end_session()
        # a locally forgotten key is UNKNOWN locally: conservative
        # merge leaves the global value alone (infinities/unknowns
        # never override), but the merge still *considered* the key
        assert glob.weight(arc(1)) == 4.0
        assert report.adopted == 0


class TestJournalDifferential:
    """``delta_since`` scans only the writes after the asked generation;
    on seeded sequences of writes, drops, clears, deltas (older ones
    included, which move a store's generation back) and copies, every
    delta must equal a full scan of the journal as the store kept it
    before: each key with the generation of its last write, in the
    order of its first write."""

    @staticmethod
    def reference(store: WeightStore, journal: dict, generation: int) -> list:
        return [(k, store.entry(k)) for k, g in journal.items() if g > generation]

    @pytest.mark.parametrize("seed", range(8))
    def test_every_delta_equals_a_full_scan(self, seed):
        import random

        rng = random.Random(seed)
        keys = [arc(i) for i in range(12)] + [ArcKey("builtin", (("is", 2),))]
        stores = [(WeightStore(), {}) for _ in range(3)]
        for _ in range(300):
            i = rng.randrange(len(stores))
            store, journal = stores[i]
            op = rng.random()
            key = rng.choice(keys)
            before = store.generation
            if op < 0.35:
                store.set_known(key, rng.choice((0.5, 1.0, 2.0, -1.0)))
                if store.generation != before:
                    journal[key] = store.generation
            elif op < 0.5:
                store.set_infinite(key)
                if store.generation != before:
                    journal[key] = store.generation
            elif op < 0.65:
                store.forget(key)
                if store.generation != before:
                    journal[key] = store.generation
            elif op < 0.7:
                dropped = list(store.keys())
                store.clear()
                for k in dropped:
                    journal[k] = store.generation
            elif op < 0.9:
                source, _ = rng.choice(stores)
                base = rng.choice((None, rng.randint(0, max(source.generation, 0))))
                delta = source.delta_since(base)
                store.apply_delta(delta)
                for k in delta.entries:
                    journal[k] = delta.generation
            else:
                stores[i] = (store.copy(), dict(journal))
            for store, journal in stores:
                for g in range(-1, store.generation + 2):
                    assert list(store.delta_since(g).entries.items()) == self.reference(
                        store, journal, g
                    ), (seed, g)
