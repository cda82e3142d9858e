"""Tests for the session-end SPD weight write-back."""

import pytest

from repro.core import BLogConfig, BLogEngine
from repro.linkdb import LinkedDatabase
from repro.ortree import ArcKey
from repro.spd import SemanticPagingDisk
from repro.spd.weights_io import write_back_weights
from repro.weights import WeightStore
from repro.workloads import family_program

from .store_writes import put_known


@pytest.fixture
def setup():
    program = family_program()
    store = WeightStore(n=8, a=16)
    db = LinkedDatabase(program, store)
    spd = SemanticPagingDisk(db, n_sps=2, track_words=128)
    return program, store, db, spd


class TestWriteBack:
    def test_clean_store_writes_nothing(self, setup):
        _, store, _, spd = setup
        report = write_back_weights(spd, store)
        assert report.dirty_pointers == 0
        assert report.blocks_touched == 0
        assert report.words_written == 0

    def test_dirty_pointer_lands_on_disk(self, setup):
        program, store, db, spd = setup
        # rule 0 (gf via f-f), literal 0, some f fact target
        target = db.block(0).pointers[0].target
        key = ArcKey("pointer", (0, 0, target))
        put_known(store, key, 2.5)
        report = write_back_weights(spd, store)
        assert report.dirty_pointers == 1
        assert report.blocks_touched == 1
        assert report.words_written == 1
        # the record on disk now carries the weight
        addr = spd.addresses[0]
        track = spd.sps[addr.sp].tracks[addr.cylinder]
        rec = track.records[addr.index]
        assert any(w == 2.5 for _name, _target, w in rec.pointers)

    def test_db_view_refreshed(self, setup):
        program, store, db, spd = setup
        p0 = db.block(0).pointers[0]
        key = p0.arc_key(0)
        put_known(store, key, 3.25)
        write_back_weights(spd, store)
        assert db.block(0).pointers[0].weight == 3.25

    def test_query_pseudo_block_skipped(self, setup):
        _, store, _, spd = setup
        put_known(store, ArcKey("pointer", (-1, 0, 0)), 1.0)
        report = write_back_weights(spd, store)
        assert report.dirty_pointers == 0

    def test_idempotent_second_writeback_cheap(self, setup):
        program, store, db, spd = setup
        key = db.block(0).pointers[0].arc_key(0)
        put_known(store, key, 2.0)
        first = write_back_weights(spd, store)
        second = write_back_weights(spd, store)
        # same track already cached; no changed words
        assert second.track_loads == 0
        assert second.words_written == 0
        assert second.cycles < first.cycles or first.track_loads == 0

    def test_batched_loads(self, setup):
        """Many dirty pointers in one block cost one track visit."""
        program, store, db, spd = setup
        block = db.block(0)
        for p in block.pointers:
            put_known(store, p.arc_key(0), 1.0)
        report = write_back_weights(spd, store)
        assert report.dirty_pointers == len(block.pointers)
        assert report.blocks_touched == 1
        assert report.track_loads <= 1


class TestEndToEnd:
    def test_session_learn_then_persist(self):
        program = family_program()
        store = WeightStore(n=8, a=16)
        db = LinkedDatabase(program, store)
        spd = SemanticPagingDisk(db, n_sps=2, track_words=128)
        eng = BLogEngine(program, BLogConfig(n=8, a=16), global_store=store)
        eng.begin_session()
        eng.query("gf(sam, G)")
        eng.end_session()
        report = write_back_weights(spd, store)
        assert report.dirty_pointers > 0
        assert report.cycles > 0
        # every learned pointer weight is now visible in the database view
        for block in db:
            for p in block.pointers:
                assert p.weight == store.weight(p.arc_key(block.block_id))
