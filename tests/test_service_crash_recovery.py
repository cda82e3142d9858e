"""Crash-recovery harness: SIGKILL the whole server mid-load.

The durability contract under test is the strongest one the service
makes: an ``end_session`` reply is an *ack* — the merge it reports has
been fsynced to the write-ahead journal before the bytes of the reply
leave the process.  So after a SIGKILL at any moment:

* every acked (session, generation) pair is present in the snapshot's
  applied-map or the journal (zero acknowledged merges lost),
* replaying the journal with the dedupe rules applies each merge at
  most once (zero double-applied),
* ``DurableStore.recover()`` produces a store entry-for-entry equal to
  an *independent*, test-local replay of the same files.

The server runs as a real subprocess (``python -m repro serve``) so the
kill takes out every thread, lane, and buffered file handle at once —
exactly what a power cut or OOM kill does.  Backend selection follows
the suite convention: ``BLOG_SERVICE_BACKEND`` (thread | process).
``BLOG_CRASH_DATA_DIR``, when set (CI does), roots the data
directories somewhere the workflow can upload as a failure artifact.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

from repro.weights import WeightStore
from repro.weights.persist import delta_from_dict, store_from_dict
from repro.weights.wal import DurableStore, WeightWal

BACKEND = os.environ.get("BLOG_SERVICE_BACKEND", "thread")
REPO = Path(__file__).resolve().parent.parent
TIMEOUT = 60.0


def data_root() -> Path:
    """Parent for this test's data dirs; CI points it at an artifact path."""
    configured = os.environ.get("BLOG_CRASH_DATA_DIR")
    if configured:
        Path(configured).mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="blog-crash-", dir=configured or None))


class Server:
    """A `repro serve` subprocess plus one line-oriented TCP client."""

    def __init__(self, data_dir: Path, *extra: str, program: str = "--demo"):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        source = ["--demo"] if program == "--demo" else ["--source", program]
        self.proc = subprocess.Popen(
            [
                sys.executable, "-u", "-m", "repro", "serve", *source,
                "--port", "0", "--backend", BACKEND, "--workers", "2",
                "--data-dir", str(data_dir), *extra,
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            cwd=str(REPO),
        )
        self.port = self._await_port()
        self.sock = socket.create_connection(("127.0.0.1", self.port), TIMEOUT)
        self.sock.settimeout(TIMEOUT)
        self.rfile = self.sock.makefile("r", encoding="utf-8")

    def _await_port(self) -> int:
        deadline = time.monotonic() + TIMEOUT
        assert self.proc.stdout is not None
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                raise AssertionError(
                    f"server exited before serving (rc={self.proc.poll()})"
                )
            if line.startswith("serving "):
                # "serving family on 127.0.0.1:PORT (...)"
                return int(line.split(" on ", 1)[1].split()[0].rsplit(":", 1)[1])
        raise AssertionError("timed out waiting for the serving banner")

    def ask(self, msg: dict) -> dict:
        self.sock.sendall((json.dumps(msg) + "\n").encode())
        line = self.rfile.readline()
        if not line:
            raise AssertionError("server closed the connection mid-request")
        return json.loads(line)

    def send_only(self, msg: dict) -> None:
        self.sock.sendall((json.dumps(msg) + "\n").encode())

    def kill(self) -> None:
        self.proc.kill()
        self.proc.wait(timeout=TIMEOUT)

    def close(self) -> None:
        for closer in (self.rfile.close, self.sock.close):
            try:
                closer()
            except OSError:
                pass
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=TIMEOUT)
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def independent_replay(program_dir: Path) -> tuple[WeightStore, dict, list]:
    """Rebuild the store from disk WITHOUT DurableStore.recover().

    This is the oracle: plain JSON + frame parsing + ``apply_delta``,
    reimplementing the replay rules the docs promise (seq guard, then
    per-session generation high-water mark).
    """
    applied: dict[str, int] = {}
    snapshot_seq = 0
    store = WeightStore(n=16.0, a=16)
    snap = program_dir / "snapshot.json"
    if snap.exists():
        data = json.loads(snap.read_text())
        assert data["format"] == "blog-wal-snapshot-v1"
        store = store_from_dict(data["store"])
        store.generation = max(store.generation, int(data["generation"]))
        applied = {str(k): int(v) for k, v in data["applied"].items()}
        snapshot_seq = int(data["seq"])
    records, _, _ = WeightWal(program_dir / "wal.log").scan()
    replayed = []
    for rec in records:
        if rec["seq"] <= snapshot_seq:
            continue
        if applied.get(rec["session"], -1) >= rec["generation"]:
            continue
        store.apply_delta(delta_from_dict(rec["delta"]))
        applied[rec["session"]] = rec["generation"]
        replayed.append((rec["session"], rec["generation"]))
    return store, applied, replayed


def entries(store: WeightStore) -> dict:
    return {k: store.entry(k) for k in store.keys()}


class TestSigkillRecovery:
    def test_no_acked_merge_lost_no_merge_double_applied(self, tmp_path):
        # the figure-1 demo is too small for ten sessions to each learn
        # something new; a scaled family gives every session its own
        # region of fact clauses (and therefore its own pointer arcs)
        from repro.workloads import scaled_family

        fam = scaled_family(
            generations=4, children_per_couple=2,
            couples_per_generation=3, seed=7,
        )
        source = tmp_path / "kin.pl"
        source.write_text(fam.source)
        people = [p for gen in fam.generations[:2] for p in gen]

        root = data_root()
        data_dir = root / "kill"
        srv = Server(data_dir, program=str(source))
        acks: dict[str, int] = {}
        try:
            # ~200 queries across 10 sessions, each session acked by an
            # end_session reply carrying the post-merge generation
            for s in range(10):
                session = f"crash-{s}"
                person = people[s % len(people)]
                for q in range(20):
                    goal = (
                        f"gf({person}, G)" if q % 2 else f"anc({person}, D)"
                    )
                    reply = srv.ask(
                        {"op": "query", "id": f"{session}-{q}",
                         "program": "kin", "query": goal,
                         "session": session}
                    )
                    assert reply["ok"], reply
                merged = srv.ask(
                    {"op": "end_session", "program": "kin",
                     "session": session}
                )
                assert merged["ok"], merged
                # a merge that adopted entries bumped the generation and
                # was journaled before this reply was sent — a strong ack
                if merged["merged"] and merged["merged"]["adopted"] > 0:
                    acks[session] = merged["merged"]["generation"]
            assert len(acks) >= 5, f"load produced too few acked merges: {acks}"
            # leave work in flight so the kill lands mid-load, then pull
            # the plug on the whole process tree
            for q in range(5):
                srv.send_only(
                    {"op": "query", "id": f"inflight-{q}", "program": "kin",
                     "query": f"anc({people[q]}, D)", "session": "inflight"}
                )
            srv.kill()
        finally:
            srv.close()

        program_dir = data_dir / "kin"
        reference, applied, replayed = independent_replay(program_dir)

        # zero acked merges lost: every acked (session, generation) is on
        # disk — in the snapshot's applied-map or as a journal record
        for session, generation in acks.items():
            assert applied.get(session, -1) >= generation, (
                f"acked merge lost: {session}@{generation} not on disk "
                f"(applied={applied})"
            )
        # zero double-applied: the replay rules touched each (session,
        # generation) at most once
        assert len(replayed) == len(set(replayed))

        # recover() agrees with the independent replay, entry for entry
        recovered, info = DurableStore(program_dir, n=16.0, a=16).recover()
        assert entries(recovered) == entries(reference)
        assert recovered.generation >= max(acks.values())
        assert info.seq >= len(replayed)

    def test_second_boot_serves_recovered_weights(self):
        root = data_root()
        data_dir = root / "reboot"
        srv = Server(data_dir)
        try:
            for q in range(10):
                srv.ask(
                    {"op": "query", "id": f"q{q}", "program": "family",
                     "query": "gf(sam, G)", "session": "boot"}
                )
            merged = srv.ask(
                {"op": "end_session", "program": "family", "session": "boot"}
            )
            assert merged["ok"] and merged["merged"] is not None
            acked = merged["merged"]["generation"]
            srv.kill()
        finally:
            srv.close()

        srv2 = Server(data_dir)
        try:
            health = srv2.ask({"op": "health"})
            assert health["ok"]
            assert "recovering" in health["history"]
            stats = srv2.ask({"op": "stats"})
            durable = stats["stats"]["durability"]["family"]
            assert durable["recovery"]["records_replayed"] >= 1
            reply = srv2.ask(
                {"op": "query", "id": "after", "program": "family",
                 "query": "gf(sam, G)", "session": "boot2"}
            )
            assert reply["ok"]
            merged2 = srv2.ask(
                {"op": "end_session", "program": "family", "session": "boot2"}
            )
            assert merged2["ok"]
            if merged2["merged"] is not None:
                # generations never regress across a crash — the dedupe
                # keys on them, so a reused one would be silently dropped
                assert merged2["merged"]["generation"] >= acked
            srv2.kill()
        finally:
            srv2.close()

    def test_recover_cli_reports_the_journal(self):
        root = data_root()
        data_dir = root / "cli"
        srv = Server(data_dir)
        try:
            for q in range(5):
                srv.ask(
                    {"op": "query", "id": f"q{q}", "program": "family",
                     "query": "gf(sam, G)", "session": "s"}
                )
            merged = srv.ask(
                {"op": "end_session", "program": "family", "session": "s"}
            )
            assert merged["ok"]
            srv.kill()
        finally:
            srv.close()
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        out = subprocess.run(
            [sys.executable, "-m", "repro", "recover", str(data_dir),
             "--format", "json"],
            capture_output=True, text=True, env=env, cwd=str(REPO),
            timeout=TIMEOUT,
        )
        assert out.returncode == 0, out.stdout + out.stderr
        reports = json.loads(out.stdout)
        assert reports[0]["program"] == "family" and reports[0]["ok"]
        assert reports[0]["entries"] > 0


class TestGracefulShutdown:
    def test_sigterm_drains_checkpoints_and_exits_zero(self):
        root = data_root()
        data_dir = root / "drain"
        srv = Server(data_dir)
        try:
            for q in range(10):
                srv.ask(
                    {"op": "query", "id": f"q{q}", "program": "family",
                     "query": "gf(sam, G)", "session": "open-session"}
                )
            # "open-session" is deliberately NOT end_session'd: the drain
            # must merge it on the way down
            srv.proc.send_signal(signal.SIGTERM)
            stdout, _ = srv.proc.communicate(timeout=TIMEOUT)
        finally:
            srv.close()
        assert srv.proc.returncode == 0, stdout
        assert "drained." in stdout

        program_dir = data_dir / "family"
        # the final checkpoint compacted the journal into the snapshot
        assert (program_dir / "snapshot.json").exists()
        assert (program_dir / "wal.log").stat().st_size == 0
        snapshot = json.loads((program_dir / "snapshot.json").read_text())
        assert "open-session" in snapshot["applied"]
        recovered, info = DurableStore(program_dir, n=16.0, a=16).recover()
        assert info.snapshot_loaded and info.records_replayed == 0
        assert len(list(recovered.keys())) > 0

    def test_sigterm_without_data_dir_still_exits_zero(self):
        # lifecycle without durability: drain must not require a data dir
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve", "--demo",
             "--port", "0", "--backend", BACKEND, "--workers", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env, cwd=str(REPO),
        )
        try:
            assert proc.stdout is not None
            deadline = time.monotonic() + TIMEOUT
            while time.monotonic() < deadline:
                line = proc.stdout.readline()
                if line.startswith("serving "):
                    break
            else:
                pytest.fail("no serving banner")
            proc.send_signal(signal.SIGTERM)
            stdout, _ = proc.communicate(timeout=TIMEOUT)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=TIMEOUT)
        assert proc.returncode == 0, stdout
        assert "drained." in stdout
