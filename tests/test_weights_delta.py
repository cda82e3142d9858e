"""Weight-store deltas, session overlays and the touched-keys merge.

The serving layer stands on three mechanisms of the weights layer —
each pinned here at the unit level:

* :class:`SessionStore` — a session's overlay on a store: it holds only
  what the session wrote, reads the rest through, and its
  :meth:`~SessionStore.delta` is those writes in first-write order;
* ``StoreDelta`` / ``apply_delta`` — the typed delta lanes
  exchange, including UNKNOWN tombstones for dropped keys and the
  mirror's generation jump, and its JSON form on disk;
* ``SessionManager``'s touched-keys merge — only keys the session
  actually wrote participate in the end-of-session merge (the §5
  "separate buffer" of weight updates), never the keys it only read.
"""

import json

import pytest

from repro.ortree.tree import ArcKey
from repro.weights.persist import DELTA_FORMAT, delta_from_dict, delta_to_dict
from repro.weights.session import SessionManager, plan_merge
from repro.weights.store import SessionStore, StoreDelta, WeightEntry, WeightState, WeightStore

from .store_writes import put_infinite, put_known, tombstone


def arc(i: int) -> ArcKey:
    return ArcKey("pointer", (f"c{i}", 0, f"p{i}"))


def full(store: WeightStore) -> StoreDelta:
    """What a lane ships a new mirror: the whole store."""
    return StoreDelta(None, store.generation, store.snapshot())


class TestSessionDelta:
    def test_delta_holds_the_writes_in_first_write_order(self):
        s = SessionStore(WeightStore())
        assert s.delta().entries == {}
        put_known(s, arc(2), 3.0)
        put_infinite(s, arc(1))
        put_known(s, arc(2), 1.0)  # a re-write keeps its first place
        delta = s.delta()
        assert list(delta.entries) == [arc(2), arc(1)]
        assert delta.entries[arc(2)] == WeightEntry(WeightState.KNOWN, 1.0)
        assert (delta.base, delta.generation) == (0, 3)

    def test_forget_and_clear_are_tombstones(self):
        base = WeightStore()
        put_known(base, arc(1), 3.0)
        put_known(base, arc(2), 4.0)
        s = SessionStore(base)
        tombstone(s, arc(1))
        assert set(s.delta().entries) == {arc(1)}
        assert arc(1) not in s and arc(2) in s and len(s) == 1
        tombstone(s, *s.keys())
        entries = s.delta().entries
        assert set(entries) == {arc(1), arc(2)}
        assert {e.state for e in entries.values()} == {WeightState.UNKNOWN}
        assert len(s) == 0 and len(base) == 2  # the base untouched

    def test_reads_fall_through_and_writes_stay_local(self):
        base = WeightStore()
        put_known(base, arc(1), 3.0)
        s = SessionStore(base)
        assert s.generation == base.generation and s.weight(arc(1)) == 3.0
        put_known(s, arc(2), 5.0)
        assert s.snapshot() == {arc(1): base.entry(arc(1)), arc(2): s.entry(arc(2))}
        assert arc(2) not in base and base.generation == 1
        assert list(s.delta().entries) == [arc(2)]  # an inherited key is no write

    def test_a_write_to_the_base_does_not_show_through(self):
        base = WeightStore()
        put_known(base, arc(1), 3.0)
        s = SessionStore(base)
        put_known(s, arc(2), 1.0)
        put_known(base, arc(1), 9.0)
        put_known(base, arc(2), 9.0)  # the session's own write wins
        put_known(base, arc(3), 9.0)
        tombstone(base, arc(1))
        assert s.snapshot() == {
            arc(1): WeightEntry(WeightState.KNOWN, 3.0),
            arc(2): WeightEntry(WeightState.KNOWN, 1.0),
        }
        assert list(s.delta().entries) == [arc(2)]  # before-images are no writes
        s.close()
        put_known(base, arc(4), 2.0)  # closed: the overlay no longer tracks it
        assert s.weight(arc(4)) == 2.0

    def test_a_session_opens_on_a_plain_store_only(self):
        with pytest.raises(TypeError):
            SessionStore(SessionStore(WeightStore()))


class TestDeltaRoundtrip:
    def test_full_delta_builds_an_identical_mirror(self):
        src = WeightStore(n=8.0, a=4)
        put_known(src, arc(1), 3.0)
        put_infinite(src, arc(2))
        mirror = WeightStore(n=8.0, a=4)
        assert mirror.apply_delta(full(src)) == 2
        assert mirror.snapshot() == src.snapshot()
        assert mirror.generation == src.generation

    def test_catch_up_ships_only_the_committed_entries(self):
        """A lane's mirror catches up with the union of the merges
        committed since its last sync, each key at its newest entry."""
        src = WeightStore()
        put_known(src, arc(1), 3.0)
        mirror = WeightStore()
        mirror.apply_delta(full(src))
        missing: dict = {}
        for entries in ({arc(2): 5.0}, {arc(1): 2.5, arc(3): 1.0}, {arc(2): 4.0}):
            local = SessionStore(src)
            for k, v in entries.items():
                put_known(local, k, v)
            local.close()
            delta, _ = plan_merge(src, local.delta().entries)
            src.apply_delta(delta)
            missing.update(delta.entries)
        assert list(missing) == [arc(2), arc(1), arc(3)]
        mirror.apply_delta(StoreDelta(None, src.generation, missing))
        assert mirror.snapshot() == src.snapshot()
        assert mirror.generation == src.generation

    def test_tombstones_propagate_removals(self):
        src = WeightStore()
        put_known(src, arc(1), 3.0)
        put_known(src, arc(2), 4.0)
        mirror = WeightStore()
        mirror.apply_delta(full(src))
        local = SessionStore(src)
        tombstone(local, arc(1))
        delta = local.delta()
        states = {e.state for e in delta.entries.values()}
        assert states == {WeightState.UNKNOWN}  # a pure tombstone
        mirror.apply_delta(delta)
        assert arc(1) not in mirror
        assert mirror.snapshot() == local.snapshot()

    def test_clear_tombstones_everything(self):
        src = WeightStore()
        put_known(src, arc(1), 3.0)
        put_infinite(src, arc(2))
        mirror = WeightStore()
        mirror.apply_delta(full(src))
        local = SessionStore(src)
        tombstone(local, *local.keys())
        mirror.apply_delta(local.delta())
        assert len(mirror) == 0

    def test_generation_jumps_to_the_source(self):
        src = WeightStore()
        for i in range(5):
            put_known(src, arc(i), float(i))
        mirror = WeightStore()
        put_known(mirror, arc(9), 1.0)  # the mirror's own counter: 1
        mirror.apply_delta(StoreDelta(None, src.generation, {arc(4): src.entry(arc(4))}))
        assert mirror.generation == src.generation == 5

    def test_delta_is_json_serializable(self):
        local = SessionStore(WeightStore())
        put_known(local, arc(1), 3.0)
        put_infinite(local, arc(2))
        put_known(local, arc(3), 1.0)
        tombstone(local, arc(3))
        delta = local.delta()
        wire = json.dumps(delta_to_dict(delta, local.n, local.a))
        data = json.loads(wire)
        assert data["format"] == DELTA_FORMAT and data["generation"] == local.generation
        assert delta_from_dict(data) == delta  # the tombstone included

    def test_bad_format_is_rejected(self):
        with pytest.raises(ValueError, match="format"):
            delta_from_dict({"format": "something-else", "entries": []})

    def test_merging_a_tombstone_leaves_the_global_entry(self):
        local = SessionStore(WeightStore())
        put_known(local, arc(1), 3.0)
        put_known(local, arc(2), 4.0)
        tombstone(local, arc(2))
        entries = local.delta().entries
        assert entries[arc(2)].state is WeightState.UNKNOWN
        # conservative-merging it into a global that knows arc(2)
        # adopts the live entry and leaves arc(2) as it was
        glob = WeightStore()
        put_known(glob, arc(2), 7.0)
        delta, report = plan_merge(glob, entries)
        glob.apply_delta(delta)
        assert report.adopted == 1 and report.unchanged == 1
        assert glob.weight(arc(1)) == 3.0 and glob.weight(arc(2)) == 7.0


class TestTouchedKeysMerge:
    def test_untouched_inherited_keys_do_not_remerge(self):
        """A session that wrote nothing merges nothing — even though its
        local store reads every global entry.  Before the touched-keys
        merge this re-averaged every inherited copy (a no-op
        arithmetically, but generation-bumping and O(store))."""
        glob = WeightStore()
        put_known(glob, arc(1), 4.0)
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
        put_known(glob, arc(1), 4.0)
        put_known(glob, arc(2), 10.0)
        mgr = SessionManager(glob)
        mgr.begin_session()
        put_known(mgr.local, arc(1), 2.0)  # touched by this session
        # a concurrent session's merge moves arc(2) in the global store;
        # this session still reads the 10.0 it saw at open
        put_known(glob, arc(2), 6.0)
        mgr.end_session()  # conservative, alpha=0.5
        assert glob.weight(arc(1)) == pytest.approx(3.0)  # (4+2)/2
        assert glob.weight(arc(2)) == 6.0  # stale copy never re-averaged

    def test_touched_includes_forgets(self):
        glob = WeightStore()
        put_known(glob, arc(1), 4.0)
        mgr = SessionManager(glob)
        mgr.begin_session()
        tombstone(mgr.local, arc(1))
        report = mgr.end_session()
        # a locally forgotten key is UNKNOWN locally: conservative
        # merge leaves the global value alone (infinities/unknowns
        # never override), but the merge still *considered* the key
        assert glob.weight(arc(1)) == 4.0
        assert report.adopted == 0
