"""Write-ahead journaling and snapshots for the global weight store.

B-LOG's value accrues in the learned arc weights: sessions merge into
the global store across queries (paper §4–5), so the store must outlive
the process that learned it.  This module is the crash-safety layer the
serving stack builds on:

* :class:`WeightWal` — an append-only journal of *merge records*.  Each
  record is length-prefixed and checksummed (``>II`` header: payload
  length, crc32), and every append is flushed and ``fsync``\\ ed before
  it returns — the service acknowledges a session merge to the client
  only after the record is durable.  Replay tolerates a **torn final
  record** (a crash mid-append leaves a short frame at the tail, which
  is dropped) and rejects any *interior* corruption by checksum with
  :class:`WalCorruptError` — silent skips would hide data loss.
* :class:`DurableStore` — one program's data directory
  (``snapshot.json`` + ``wal.log``).  Recovery loads the snapshot (if
  any) and replays the journal tail; periodic checkpoints write a new
  snapshot **atomically** (tmp file → fsync → ``os.replace`` → directory
  fsync) and truncate the journal they cover.
* **Idempotent replay** — every record carries ``(session, generation)``
  and a monotonic ``seq``.  Recovery skips records the snapshot already
  folded in (``seq <= snapshot seq``) and records whose session has
  already merged at that generation or later, so a merge is never
  applied twice — not across a crash between snapshot-replace and
  journal-truncate, and not for a duplicate append after a lost ack.

A record's ``delta`` is the :class:`~repro.weights.store.StoreDelta`
of what the merge changed in the global store, written with
:func:`~repro.weights.persist.delta_to_dict` (the entry encoding of a
snapshot, goal keys' terms as JSON structure) and read back with
:func:`~repro.weights.persist.delta_from_dict`.  Replay is a plain
``store.apply_delta``, not a re-merge — byte-deterministic regardless
of merge policy or α.  This is the only place a delta becomes JSON.

This module is deliberately zero-dependency and telemetry-free (it
lives in ``repro/weights``); the service layer wraps the calls with
spans and metrics.  Thread-safety: :class:`DurableStore` serializes
appends and checkpoints with an internal lock so the service may run
them on an IO executor off the event loop.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional, Union

from ..ortree.tree import ArcKey
from .persist import (
    INDENTED,
    STORE_FORMAT,
    StoreCorruptError,
    atomic_write,
    delta_from_dict,
    delta_to_dict,
    entry_to_json,
    store_from_dict,
)
from .store import StoreDelta, WeightEntry, WeightStore

__all__ = [
    "WalCorruptError",
    "WeightWal",
    "DurableStore",
    "Checkpoint",
    "RecoveryInfo",
    "SNAPSHOT_FORMAT",
]

#: per-record frame header: payload byte length, crc32 of the payload
_HEADER = struct.Struct(">II")

SNAPSHOT_FORMAT = "blog-wal-snapshot-v1"


class WalCorruptError(ValueError):
    """An interior journal record failed its checksum or framing.

    A *final* bad record is a torn append (crash mid-write) and is
    dropped silently; a bad record with valid records after it means
    the file was damaged and replay must not guess past it.
    """


@dataclass
class RecoveryInfo:
    """What one :meth:`DurableStore.recover` did."""

    snapshot_loaded: bool = False
    snapshot_seq: int = 0
    records_replayed: int = 0
    records_skipped: int = 0  # covered by the snapshot or (session, gen) dedupe
    torn_tail: bool = False
    seq: int = 0  # journal sequence after recovery

    def to_dict(self) -> dict:
        return {
            "snapshot_loaded": self.snapshot_loaded,
            "snapshot_seq": self.snapshot_seq,
            "records_replayed": self.records_replayed,
            "records_skipped": self.records_skipped,
            "torn_tail": self.torn_tail,
            "seq": self.seq,
        }


@dataclass(frozen=True)
class Checkpoint:
    """One store as its snapshot will hold it, captured where the store is
    coherent.  Capturing copies the entry map and encodes nothing: a
    later write replaces an entry object but never changes one, so the
    copy stays this generation's view while :meth:`chunks` encodes it.
    """

    seq: int
    generation: int
    applied: dict[str, int]
    n: float
    a: int
    entries: dict[ArcKey, WeightEntry]

    def _document(self, entries: list[dict]) -> dict:
        return {
            "format": SNAPSHOT_FORMAT,
            "seq": self.seq,
            "generation": self.generation,
            "applied": self.applied,
            "store": {"format": STORE_FORMAT, "n": self.n, "a": self.a, "entries": entries},
        }

    def document(self) -> dict:
        """The snapshot as one JSON-ready dict (two dicts per entry)."""
        return self._document([entry_to_json(k, e) for k, e in self.entries.items()])

    def chunks(self) -> Iterator[str]:
        """The text ``json.dump(self.document(), fh, indent=1)`` writes,
        with the entries encoded one at a time: the store's entry list is
        the document's last value, three levels deep."""
        head, _, tail = INDENTED.encode(self._document([])).rpartition("[]")
        yield head
        opener = "["
        for key, entry in self.entries.items():
            text = INDENTED.encode(entry_to_json(key, entry))
            yield opener + "\n   " + text.replace("\n", "\n   ")
            opener = ","
        yield "[]" if opener == "[" else "\n  ]"
        yield tail


class WeightWal:
    """The append-only merge journal: framed, checksummed, fsynced.

    One record per acknowledged merge::

        {"seq": 7, "session": "alice", "generation": 42, "delta": {...}}

    ``append`` assigns ``seq`` (monotonic across checkpoints), frames
    the JSON payload, writes, flushes, and ``fsync``\\ s before
    returning — the caller may acknowledge the merge the moment
    ``append`` comes back.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._fh = None
        self.seq = 0  # last assigned sequence number
        self.appends = 0
        self.last_fsync_s = 0.0  # duration of the most recent fsync

    # -- reading -------------------------------------------------------------
    def scan(self) -> tuple[list[dict], int, bool]:
        """``(records, good_offset, torn)`` for the journal on disk.

        ``good_offset`` is the byte offset just past the last complete,
        checksum-valid record — the truncation point for
        :meth:`open_append`.  ``torn`` is True when trailing bytes had
        to be dropped (short frame or a checksum failure *at the tail*,
        both signatures of a crash mid-append).  A checksum failure
        with valid data after it raises :class:`WalCorruptError`.
        """
        if not self.path.exists():
            return [], 0, False
        data = self.path.read_bytes()
        records: list[dict] = []
        off = 0
        torn = False
        while off < len(data):
            if off + _HEADER.size > len(data):
                torn = True
                break
            length, crc = _HEADER.unpack_from(data, off)
            end = off + _HEADER.size + length
            if end > len(data):
                torn = True
                break
            payload = data[off + _HEADER.size : end]
            if zlib.crc32(payload) != crc:
                if end == len(data):
                    torn = True  # partial overwrite of the final frame
                    break
                raise WalCorruptError(
                    f"journal {self.path} record at offset {off} fails its "
                    "checksum with valid records after it — the file is "
                    "damaged, refusing to replay past the corruption"
                )
            try:
                records.append(json.loads(payload))
            except json.JSONDecodeError as exc:
                raise WalCorruptError(
                    f"journal {self.path} record at offset {off} passed its "
                    f"checksum but is not valid JSON: {exc}"
                ) from exc
            off = end
        return records, off, torn

    # -- writing -------------------------------------------------------------
    def open_append(self, truncate_at: Optional[int] = None) -> None:
        """Open the journal for appending, optionally dropping a torn
        tail first (``truncate_at`` = the last good offset from
        :meth:`scan`)."""
        self.close()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fh = open(self.path, "ab")
        if truncate_at is not None and fh.tell() > truncate_at:
            fh.truncate(truncate_at)
            fh.seek(truncate_at)
        self._fh = fh

    def append(self, record: dict) -> int:
        """Frame, write, flush, and fsync one record; returns its seq.

        Durable on return: a crash after ``append`` cannot lose the
        record (a crash *during* it leaves a torn tail that replay
        drops — the merge was then never acknowledged).
        """
        if self._fh is None:
            self.open_append()
        self.seq += 1
        payload = json.dumps({"seq": self.seq, **record}).encode("utf-8")
        frame = _HEADER.pack(len(payload), zlib.crc32(payload)) + payload
        fh = self._fh
        fh.write(frame)
        fh.flush()
        t0 = time.monotonic()
        os.fsync(fh.fileno())
        self.last_fsync_s = time.monotonic() - t0
        self.appends += 1
        return self.seq

    def reset(self) -> None:
        """Truncate the journal to empty (after a covering snapshot).

        The ``seq`` counter is *not* reset — sequence numbers stay
        monotonic across checkpoints, which is what lets recovery skip
        journal records a snapshot already folded in.
        """
        self.close()
        fh = open(self.path, "wb")
        try:
            fh.flush()
            os.fsync(fh.fileno())
        finally:
            fh.close()
        self.open_append()

    def size_bytes(self) -> int:
        return self.path.stat().st_size if self.path.exists() else 0

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


class DurableStore:
    """One program's crash-safe weight persistence: snapshot + journal.

    Layout (one directory per program)::

        <dir>/snapshot.json   atomic store snapshot + applied-merge map
        <dir>/wal.log         merge journal since that snapshot

    Protocol: :meth:`recover` once at boot (returns the reconstructed
    store), :meth:`log_merge` after every global-store merge (fsynced
    before the merge is acknowledged), and :meth:`capture` /
    :meth:`write_checkpoint` periodically and at drain.  ``capture``
    must run where the store is coherent (the service's event-loop
    thread); ``write_checkpoint`` and ``log_merge`` are safe on an IO
    executor — an internal lock serializes them.
    """

    SNAPSHOT = "snapshot.json"
    JOURNAL = "wal.log"

    def __init__(self, directory: Union[str, Path], n: float = 16.0, a: int = 16):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.n = float(n)
        self.a = int(a)
        self.wal = WeightWal(self.directory / self.JOURNAL)
        #: session -> generation of its last journaled merge (the
        #: idempotence key: a replayed record at or below this is a dup)
        self.applied: dict[str, int] = {}
        self.checkpoints = 0
        self.recovery = RecoveryInfo()
        self._lock = threading.Lock()

    @property
    def snapshot_path(self) -> Path:
        return self.directory / self.SNAPSHOT

    # -- recovery ------------------------------------------------------------
    def recover(self) -> tuple[WeightStore, RecoveryInfo]:
        """Rebuild the store: snapshot (if any) + journal tail replay.

        Raises :class:`~repro.weights.persist.StoreCorruptError` on a
        damaged snapshot and :class:`WalCorruptError` on interior
        journal corruption; a torn final journal record is dropped (it
        was never acknowledged).  Replay is idempotent: records covered
        by the snapshot's seq, or whose ``(session, generation)`` the
        applied map already holds, are skipped and counted.
        """
        info = RecoveryInfo()
        store: Optional[WeightStore] = None
        snap = self.snapshot_path
        if snap.exists():
            try:
                data = json.loads(snap.read_text(encoding="utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise StoreCorruptError(
                    f"snapshot {snap} is not valid JSON ({exc}) — the file "
                    "is truncated or damaged; restore it from backup or "
                    "delete it to replay the journal from scratch"
                ) from exc
            if data.get("format") != SNAPSHOT_FORMAT:
                raise StoreCorruptError(
                    f"snapshot {snap} has format {data.get('format')!r}, "
                    f"expected {SNAPSHOT_FORMAT!r}"
                )
            # load at the live counter, or a post-recovery merge could
            # reuse a generation an older journal record already holds
            # for the same session — and the (session, generation)
            # dedupe would then wrongly skip it
            try:
                store = store_from_dict(
                    data["store"], generation=int(data.get("generation", 0))
                )
            except (ValueError, KeyError, TypeError) as exc:
                raise StoreCorruptError(
                    f"snapshot {snap} is structurally invalid: {exc}"
                ) from exc
            info.snapshot_loaded = True
            info.snapshot_seq = int(data.get("seq", 0))
            self.applied = {str(k): int(v) for k, v in data.get("applied", {}).items()}
        if store is None:
            store = WeightStore(n=self.n, a=self.a)
            self.applied = {}
        records, good_offset, torn = self.wal.scan()
        info.torn_tail = torn
        last_seq = info.snapshot_seq
        for rec in records:
            seq = int(rec.get("seq", 0))
            last_seq = max(last_seq, seq)
            if seq <= info.snapshot_seq:
                info.records_skipped += 1
                continue
            session = str(rec["session"])
            generation = int(rec["generation"])
            if self.applied.get(session, -1) >= generation:
                info.records_skipped += 1
                continue
            store.apply_delta(delta_from_dict(rec["delta"]))
            self.applied[session] = generation
            info.records_replayed += 1
        # journal records carry the encodings of the store they change
        self.n, self.a = store.n, store.a
        self.wal.seq = last_seq
        self.wal.open_append(truncate_at=good_offset)
        info.seq = last_seq
        self.recovery = info
        return store, info

    # -- journaling ----------------------------------------------------------
    def log_merge(self, session: str, generation: int, delta: StoreDelta) -> int:
        """Append one acknowledged merge; durable (fsynced) on return."""
        payload = delta_to_dict(delta, self.n, self.a)
        with self._lock:
            seq = self.wal.append(
                {"session": session, "generation": int(generation), "delta": payload}
            )
            self.applied[session] = int(generation)
        return seq

    # -- checkpoints ---------------------------------------------------------
    def capture(self, store: WeightStore) -> Checkpoint:
        """A consistent snapshot of ``store`` at the journal's current seq
        (call where the store is coherent; no IO or encoding happens
        here)."""
        return Checkpoint(
            seq=self.wal.seq,
            generation=store.generation,
            applied=dict(self.applied),
            n=store.n,
            a=store.a,
            entries=store.snapshot(),
        )

    def write_checkpoint(self, checkpoint: Checkpoint) -> None:
        """Persist a captured snapshot with
        :func:`~repro.weights.persist.atomic_write`, encoding it entry by
        entry into the bytes its document would give, and compact the
        journal.  The journal is truncated only when no merge was
        appended since the capture (otherwise the tail is kept;
        recovery's seq guard skips the covered prefix).
        """
        with self._lock:
            atomic_write(self.snapshot_path, checkpoint.chunks())
            if self.wal.seq == checkpoint.seq:
                self.wal.reset()
            self.checkpoints += 1

    def checkpoint(self, store: WeightStore) -> None:
        """Capture + write in one call (offline tools, tests)."""
        self.write_checkpoint(self.capture(store))

    # -- introspection -------------------------------------------------------
    def status(self) -> dict:
        """Operator-facing durability counters for this program."""
        return {
            "directory": str(self.directory),
            "seq": self.wal.seq,
            "wal_appends": self.wal.appends,
            "wal_bytes": self.wal.size_bytes(),
            "checkpoints": self.checkpoints,
            "applied": dict(self.applied),
            "recovery": self.recovery.to_dict(),
        }

    def close(self) -> None:
        self.wal.close()
