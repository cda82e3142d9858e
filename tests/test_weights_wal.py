"""Tests for the durable weight-store layer (repro.weights.wal).

The WAL's contract is exact: a record acknowledged (``append``/
``log_merge`` returned) survives any crash; a torn final record — the
signature of a crash *during* an append — is dropped silently; interior
corruption is refused loudly; replay is idempotent under re-delivery
and under a crash between snapshot-replace and journal-truncate.
"""

from __future__ import annotations

import json
import os
import stat
import struct
import zlib

import pytest

from repro.logic.parser import parse_term
from repro.logic.terms import Int, Struct
from repro.ortree import ArcKey
from repro.ortree.tree import canonical_goal
from repro.weights import WeightStore
from repro.weights.persist import StoreCorruptError, load_store, save_store
from repro.weights.store import SessionStore, StoreDelta
from repro.weights.wal import DurableStore, WalCorruptError, WeightWal


def key(i: int) -> ArcKey:
    return ArcKey("pointer", (i, 0, i + 1))


def entries(store: WeightStore) -> dict:
    return {k: store.entry(k) for k in store.keys()}


def commit(store: WeightStore, session: SessionStore) -> StoreDelta:
    """Apply what ``session`` (open on ``store``) wrote to the store, as
    a merge would, and return that delta."""
    session.close()
    delta = session.delta()
    store.apply_delta(delta)
    return delta


def learned_delta(store: WeightStore, n: int = 3, offset: int = 0) -> StoreDelta:
    """Mutate ``store`` like a merge would and return the acked delta."""
    session = SessionStore(store)
    for i in range(n):
        session.set_known(key(offset + i), 1.0 + i)
    return commit(store, session)


class TestWalFraming:
    def test_append_scan_roundtrip(self, tmp_path):
        wal = WeightWal(tmp_path / "wal.log")
        wal.append({"session": "a", "generation": 1, "delta": {"x": 1}})
        wal.append({"session": "b", "generation": 2, "delta": {"x": 2}})
        wal.close()
        records, offset, torn = WeightWal(tmp_path / "wal.log").scan()
        assert [r["seq"] for r in records] == [1, 2]
        assert [r["session"] for r in records] == ["a", "b"]
        assert not torn
        assert offset == (tmp_path / "wal.log").stat().st_size

    def test_torn_final_record_dropped(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WeightWal(path)
        wal.append({"session": "a", "generation": 1, "delta": {}})
        wal.append({"session": "b", "generation": 2, "delta": {}})
        wal.close()
        data = path.read_bytes()
        path.write_bytes(data[:-3])  # crash mid-append of the final frame
        records, offset, torn = WeightWal(path).scan()
        assert [r["session"] for r in records] == ["a"]
        assert torn
        assert offset < len(data) - 3

    def test_torn_header_dropped(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WeightWal(path)
        wal.append({"session": "a", "generation": 1, "delta": {}})
        wal.close()
        with open(path, "ab") as fh:
            fh.write(b"\x00\x00")  # 2 of 8 header bytes made it out
        records, _, torn = WeightWal(path).scan()
        assert len(records) == 1 and torn

    def test_interior_corruption_refused(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WeightWal(path)
        wal.append({"session": "a", "generation": 1, "delta": {}})
        first_end = path.stat().st_size
        wal.append({"session": "b", "generation": 2, "delta": {}})
        wal.close()
        data = bytearray(path.read_bytes())
        data[12] ^= 0xFF  # flip a payload byte of the FIRST record
        path.write_bytes(bytes(data))
        assert first_end < len(data)
        with pytest.raises(WalCorruptError, match="refusing to replay"):
            WeightWal(path).scan()

    def test_corrupt_tail_counts_as_torn(self, tmp_path):
        # a bad checksum on the very last frame is indistinguishable from
        # a partially overwritten append: dropped, not fatal
        path = tmp_path / "wal.log"
        wal = WeightWal(path)
        wal.append({"session": "a", "generation": 1, "delta": {}})
        wal.append({"session": "b", "generation": 2, "delta": {}})
        wal.close()
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        records, _, torn = WeightWal(path).scan()
        assert [r["session"] for r in records] == ["a"] and torn

    def test_frame_layout_is_len_crc_payload(self, tmp_path):
        # pin the on-disk format: 4-byte BE length, 4-byte BE crc32, JSON
        path = tmp_path / "wal.log"
        wal = WeightWal(path)
        wal.append({"session": "s", "generation": 3, "delta": {}})
        wal.close()
        raw = path.read_bytes()
        length, crc = struct.unpack_from(">II", raw, 0)
        payload = raw[8 : 8 + length]
        assert zlib.crc32(payload) == crc
        assert json.loads(payload)["generation"] == 3

    def test_seq_monotonic_across_reset(self, tmp_path):
        wal = WeightWal(tmp_path / "wal.log")
        wal.append({"session": "a", "generation": 1, "delta": {}})
        wal.reset()
        assert wal.size_bytes() == 0
        seq = wal.append({"session": "b", "generation": 2, "delta": {}})
        assert seq == 2  # never reused: the snapshot seq guard depends on it
        wal.close()


class TestDurableStoreRecovery:
    def test_empty_dir_recovers_empty(self, tmp_path):
        store, info = DurableStore(tmp_path / "p", n=8, a=16).recover()
        assert len(list(store.keys())) == 0
        assert not info.snapshot_loaded and info.records_replayed == 0

    def test_journal_only_replay(self, tmp_path):
        live = WeightStore(n=8, a=16)
        ds = DurableStore(tmp_path / "p", n=8, a=16)
        ds.log_merge("s1", live.generation + 3, learned_delta(live))
        ds.log_merge("s2", live.generation + 3, learned_delta(live, offset=10))
        ds.close()
        recovered, info = DurableStore(tmp_path / "p", n=8, a=16).recover()
        assert entries(recovered) == entries(live)
        assert recovered.generation == live.generation
        assert info.records_replayed == 2 and info.records_skipped == 0

    def test_snapshot_plus_tail(self, tmp_path):
        live = WeightStore(n=8, a=16)
        ds = DurableStore(tmp_path / "p", n=8, a=16)
        ds.log_merge("s1", 0, learned_delta(live))
        ds.checkpoint(live)
        assert ds.wal.size_bytes() == 0  # compacted
        ds.log_merge("s2", live.generation + 3, learned_delta(live, offset=10))
        ds.close()
        recovered, info = DurableStore(tmp_path / "p", n=8, a=16).recover()
        assert entries(recovered) == entries(live)
        assert info.snapshot_loaded and info.records_replayed == 1

    def test_replay_is_idempotent_per_session_generation(self, tmp_path):
        # the same (session, generation) record delivered twice — a retry
        # after a lost ack — is applied once and counted as skipped
        live = WeightStore(n=8, a=16)
        delta = learned_delta(live)
        gen = live.generation
        ds = DurableStore(tmp_path / "p", n=8, a=16)
        ds.log_merge("s1", gen, delta)
        ds.log_merge("s1", gen, delta)  # duplicate delivery
        ds.close()
        recovered, info = DurableStore(tmp_path / "p", n=8, a=16).recover()
        assert entries(recovered) == entries(live)
        assert info.records_replayed == 1 and info.records_skipped == 1

    def test_crash_between_snapshot_and_truncate(self, tmp_path):
        # snapshot written, journal NOT yet truncated (the crash window in
        # write_checkpoint): replay must skip the covered records by seq
        live = WeightStore(n=8, a=16)
        ds = DurableStore(tmp_path / "p", n=8, a=16)
        ds.log_merge("s1", live.generation + 3, learned_delta(live))
        snap = ds.capture(live).document()
        # simulate the crash: write the snapshot file but skip the truncate
        ds.snapshot_path.write_text(json.dumps(snap))
        ds.close()
        recovered, info = DurableStore(tmp_path / "p", n=8, a=16).recover()
        assert entries(recovered) == entries(live)
        assert info.records_replayed == 0 and info.records_skipped == 1

    def test_recovery_restores_generation(self, tmp_path):
        live = WeightStore(n=8, a=16)
        ds = DurableStore(tmp_path / "p", n=8, a=16)
        for i in range(4):
            ds.log_merge(f"s{i}", live.generation + 3, learned_delta(live, offset=i * 5))
        ds.checkpoint(live)
        ds.close()
        recovered, _ = DurableStore(tmp_path / "p", n=8, a=16).recover()
        # a fresh merge after recovery must get a NEW generation, or the
        # (session, generation) dedupe would silently drop it on replay
        assert recovered.generation == live.generation

    def test_torn_tail_truncated_on_recovery(self, tmp_path):
        live = WeightStore(n=8, a=16)
        ds = DurableStore(tmp_path / "p", n=8, a=16)
        ds.log_merge("s1", live.generation + 3, learned_delta(live))
        ds.close()
        path = tmp_path / "p" / "wal.log"
        good = path.read_bytes()
        path.write_bytes(good + b"\x00\x01\x02")  # torn append after s1
        ds2 = DurableStore(tmp_path / "p", n=8, a=16)
        recovered, info = ds2.recover()
        assert info.torn_tail and info.records_replayed == 1
        # the torn bytes are gone: the next append lands on a clean tail
        ds2.log_merge("s2", live.generation + 6, learned_delta(live, offset=10))
        ds2.close()
        records, _, torn = WeightWal(path).scan()
        assert not torn and [r["session"] for r in records] == ["s1", "s2"]

    def test_corrupt_snapshot_raises_store_corrupt(self, tmp_path):
        ds = DurableStore(tmp_path / "p", n=8, a=16)
        ds.snapshot_path.write_text('{"format": "blog-wal-snapshot-v1", "sto')
        with pytest.raises(StoreCorruptError, match="snapshot"):
            ds.recover()

    def test_wrong_snapshot_format_raises(self, tmp_path):
        ds = DurableStore(tmp_path / "p", n=8, a=16)
        ds.snapshot_path.write_text('{"format": "blog-weights-v1"}')
        with pytest.raises(StoreCorruptError, match="format"):
            ds.recover()

    def test_checkpoint_keeps_journal_when_appends_raced_in(self, tmp_path):
        # an append lands between prepare and write: truncation is skipped
        # (seq mismatch) and recovery still sees everything exactly once
        live = WeightStore(n=8, a=16)
        ds = DurableStore(tmp_path / "p", n=8, a=16)
        ds.log_merge("s1", live.generation + 3, learned_delta(live))
        payload = ds.capture(live)
        ds.log_merge("s2", live.generation + 3, learned_delta(live, offset=10))
        ds.write_checkpoint(payload)
        assert ds.wal.size_bytes() > 0  # s2's record survived the checkpoint
        ds.close()
        recovered, info = DurableStore(tmp_path / "p", n=8, a=16).recover()
        assert entries(recovered) == entries(live)
        assert info.records_replayed == 1  # only s2; s1 came from the snapshot


class TestAtomicSaveStore:
    def test_save_syncs_the_directory_after_the_rename(self, tmp_path, monkeypatch):
        synced = []  # per fsync: was the descriptor a directory?
        fsync = os.fsync

        def recording(fd):
            synced.append(stat.S_ISDIR(os.fstat(fd).st_mode))
            fsync(fd)

        monkeypatch.setattr(os, "fsync", recording)
        store = WeightStore(n=8, a=16)
        store.set_known(key(1), 2.0)
        save_store(store, tmp_path / "w.json")
        assert synced == [False, True]  # the file's data, then its rename

    def test_save_leaves_no_tmp_file(self, tmp_path):
        store = WeightStore(n=8, a=16)
        store.set_known(key(1), 2.0)
        path = tmp_path / "w.json"
        save_store(store, path)
        assert load_store(path).weight(key(1)) == 2.0
        assert list(tmp_path.iterdir()) == [path]  # tmp file replaced away

    def test_save_overwrites_previous(self, tmp_path):
        path = tmp_path / "w.json"
        a = WeightStore(n=8, a=16)
        a.set_known(key(1), 1.0)
        save_store(a, path)
        b = WeightStore(n=8, a=16)
        b.set_known(key(2), 2.0)
        save_store(b, path)
        loaded = load_store(path)
        assert loaded.weight(key(2)) == 2.0
        assert entries(loaded) == entries(b)

    def test_truncated_json_raises_store_corrupt(self, tmp_path):
        path = tmp_path / "w.json"
        store = WeightStore(n=8, a=16)
        store.set_known(key(1), 2.0)
        save_store(store, path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(StoreCorruptError, match="truncated or damaged"):
            load_store(path)

    def test_wrong_shape_raises_store_corrupt(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(StoreCorruptError, match="JSON object"):
            load_store(path)
        path.write_text('{"format": "blog-weights-v1"}')  # missing fields
        with pytest.raises(StoreCorruptError, match="structurally invalid"):
            load_store(path)

    def test_error_names_the_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{")
        with pytest.raises(StoreCorruptError, match="broken.json"):
            load_store(path)


def goal(term, callee: int = 1) -> ArcKey:
    if isinstance(term, str):
        term = parse_term(term)
    return ArcKey("goal", (canonical_goal(term), callee))


#: goal keys whose term text does not parse back to the same term
GOAL_KEYS = [
    goal("p('hello world', X)"),
    goal("p('A', X, 'A')"),
    goal("p(a-b, X)"),
    goal(Struct("q", (Struct("-", (Int(1), Int(-1))),))),
    goal("r([1, [x, Y] | T], f(Y, 'Z z'), [])", callee=7),
]


class TestGoalKeysOnDisk:
    @pytest.mark.parametrize("k", GOAL_KEYS, ids=str)
    def test_save_load_round_trip(self, tmp_path, k):
        store = WeightStore(n=8, a=16)
        store.set_known(k, 2.5)
        store.set_infinite(key(1))
        save_store(store, tmp_path / "w.json")
        assert entries(load_store(tmp_path / "w.json")) == entries(store)

    def test_journal_round_trip(self, tmp_path):
        live = WeightStore(n=8, a=16)
        ds = DurableStore(tmp_path / "p", n=8, a=16)
        for i, k in enumerate(GOAL_KEYS):
            session = SessionStore(live)
            session.set_known(k, 1.0 + i)
            ds.log_merge(f"s{i}", live.generation, commit(live, session))
        ds.close()
        recovered, info = DurableStore(tmp_path / "p", n=8, a=16).recover()
        assert info.records_replayed == len(GOAL_KEYS)
        assert entries(recovered) == entries(live)


#: what a merge of pointer keys journals and snapshots, byte for byte, in
#: the format every earlier version wrote
POINTER_RECORD = (
    '{"seq": 1, "session": "alice", "generation": 4, "delta": {"format": '
    '"blog-weights-delta-v1", "base": 1, "generation": 4, "n": 8.0, "a": 16, '
    '"entries": [{"key": {"kind": "pointer", "caller": -1, "literal": 0, '
    '"callee": 3}, "state": "unknown", "value": 9.0}, {"key": {"kind": '
    '"pointer", "caller": 0, "literal": 1, "callee": 5}, "state": "known", '
    '"value": 7.25}, {"key": {"kind": "pointer", "caller": 2, "literal": 0, '
    '"callee": 4}, "state": "infinite", "value": 128.0}]}}'
)
POINTER_SNAPSHOT = (
    '{"format": "blog-wal-snapshot-v1", "seq": 1, "generation": 4, '
    '"applied": {"alice": 4}, "store": {"format": "blog-weights-v1", '
    '"n": 8.0, "a": 16, "entries": [{"key": {"kind": "pointer", "caller": 0, '
    '"literal": 1, "callee": 5}, "state": "known", "value": 7.25}, {"key": '
    '{"kind": "pointer", "caller": 2, "literal": 0, "callee": 4}, "state": '
    '"infinite", "value": 128.0}]}}'
)


def frame(payload: str) -> bytes:
    data = payload.encode("utf-8")
    return struct.pack(">II", len(data), zlib.crc32(data)) + data


class TestOnDiskFormat:
    def test_pointer_merge_bytes_are_unchanged(self, tmp_path):
        live = WeightStore(n=8, a=16)
        live.set_known(ArcKey("pointer", (-1, 0, 3)), 2.0)
        session = SessionStore(live)
        session.forget(ArcKey("pointer", (-1, 0, 3)))  # a tombstone
        session.set_known(ArcKey("pointer", (0, 1, 5)), 7.25)
        session.set_known(ArcKey("builtin", (("is", 2),)), 0.0)  # ignored write
        session.set_infinite(ArcKey("pointer", (2, 0, 4)))
        delta = commit(live, session)
        ds = DurableStore(tmp_path / "p", n=8, a=16)
        ds.log_merge("alice", live.generation, delta)
        assert ds.wal.path.read_bytes() == frame(POINTER_RECORD)
        payload = ds.capture(live)
        assert json.dumps(payload.document()) == POINTER_SNAPSHOT
        ds.write_checkpoint(payload)
        assert ds.snapshot_path.read_text() == json.dumps(payload.document(), indent=1)

    def test_records_with_goal_text_still_recover(self, tmp_path):
        # earlier versions wrote a goal key's term as its text
        record = (
            '{"seq": 2, "session": "s", "generation": 5, "delta": {"format": '
            '"blog-weights-delta-v1", "base": 4, "generation": 5, "n": 8.0, '
            '"a": 16, "entries": [{"key": {"kind": "goal", "goal": '
            '"gf(sam, _C1)", "callee": 3}, "state": "known", "value": 2.0}]}}'
        )
        (tmp_path / "p").mkdir()
        (tmp_path / "p" / "wal.log").write_bytes(frame(POINTER_RECORD) + frame(record))
        recovered, info = DurableStore(tmp_path / "p", n=8, a=16).recover()
        assert info.records_replayed == 2 and recovered.generation == 5
        assert recovered.weight(goal("gf(sam, X)", callee=3)) == 2.0
        assert recovered.weight(ArcKey("pointer", (0, 1, 5))) == 7.25


def goal_key(text: str, callee: int) -> ArcKey:
    return ArcKey("goal", (canonical_goal(parse_term(text)), callee))


def mixed_store(n: int) -> WeightStore:
    """A store holding every key kind and entry state, ``n`` keys each."""
    store = WeightStore(n=8, a=16)
    for i in range(n):
        store.set_known(key(i), 0.5 * i)
        store.set_infinite(ArcKey("pointer", (-1, i, 2 * i)))
        store.set_known(goal_key(f"gf(p{i}, f(X, [a, {i}|T]), X)", callee=i), 3.0)
    store.set_known(ArcKey("builtin", (("is", 2),)), 1.0)
    return store


class TestStreamedCheckpoint:
    """A captured checkpoint is encoded one entry at a time, into the
    bytes its whole document gives."""

    @pytest.mark.parametrize("n", [0, 1, 40])
    def test_chunks_are_the_document_text(self, tmp_path, n):
        store = mixed_store(n)
        ds = DurableStore(tmp_path / "p", n=8, a=16)
        whole = StoreDelta(None, store.generation, store.snapshot())
        ds.log_merge("alice", store.generation, whole)
        snapshot = ds.capture(store)
        assert "".join(snapshot.chunks()) == json.dumps(snapshot.document(), indent=1)
        ds.write_checkpoint(snapshot)
        assert ds.snapshot_path.read_text() == json.dumps(
            ds.capture(store).document(), indent=1
        )
        ds.close()
        again = DurableStore(tmp_path / "p", n=8, a=16)
        recovered, info = again.recover()
        again.close()
        assert entries(recovered) == entries(store) and info.snapshot_loaded

    def test_capture_is_the_store_at_capture_time(self, tmp_path):
        store = mixed_store(5)
        ds = DurableStore(tmp_path / "p", n=8, a=16)
        before = json.dumps(ds.capture(store).document(), indent=1)
        snapshot = ds.capture(store)
        store.set_known(key(0), 99.0)  # a merge lands between capture and write
        store.forget(key(1))
        ds.write_checkpoint(snapshot)
        ds.close()
        assert ds.snapshot_path.read_text() == before

    def test_writing_a_capture_builds_no_document(self, tmp_path):
        # the whole document holds two dicts per entry; the streamed
        # write holds one entry's at a time
        import tracemalloc

        store = mixed_store(1500)
        ds = DurableStore(tmp_path / "p", n=8, a=16)

        def peak(write) -> int:
            tracemalloc.start()
            try:
                write()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def write_document() -> None:
            with open(tmp_path / "whole.json", "w", encoding="utf-8") as fh:
                json.dump(ds.capture(store).document(), fh, indent=1)

        whole = peak(write_document)
        streamed = peak(lambda: ds.write_checkpoint(ds.capture(store)))
        ds.close()
        assert streamed * 4 < whole, (streamed, whole)
