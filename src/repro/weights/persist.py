"""Persisting the global weight database (§5's "global database in
secondary storage") to JSON.

The paper keeps the global weights on disk between sessions; the SPD
write-back (:mod:`repro.spd.weights_io`) models the *cost* of that, and
this module provides the practical library feature: save/load a
:class:`WeightStore` so learning survives process restarts.

Arc keys serialize structurally.  Pointer and builtin keys round-trip
exactly; goal-policy keys (which embed terms) serialize via the term
text and re-parse on load, with canonical variable ids preserved by the
canonicalization being deterministic.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Union

from ..logic.parser import parse_term
from ..ortree.tree import ArcKey, canonical_goal
from .store import WeightEntry, WeightState, WeightStore

__all__ = [
    "save_store",
    "load_store",
    "store_to_dict",
    "store_from_dict",
    "store_delta",
    "apply_delta",
    "delta_store",
    "StoreCorruptError",
]

DELTA_FORMAT = "blog-weights-delta-v1"


class StoreCorruptError(ValueError):
    """A persisted weight store could not be decoded.

    Raised by :func:`load_store` (and the WAL snapshot loader) instead
    of the raw ``json.JSONDecodeError``/``KeyError`` traceback, so an
    operator sees *which file* is damaged and what to do about it.
    """


def _key_to_json(key: ArcKey) -> dict:
    if key.kind == "pointer":
        caller, literal, callee = key.key
        return {"kind": "pointer", "caller": caller, "literal": literal, "callee": callee}
    if key.kind == "builtin":
        (indicator,) = key.key
        return {"kind": "builtin", "name": indicator[0], "arity": indicator[1]}
    if key.kind == "goal":
        term, callee = key.key
        return {"kind": "goal", "goal": str(term), "callee": callee}
    raise ValueError(f"unknown arc key kind {key.kind!r}")


def _key_from_json(data: dict) -> ArcKey:
    kind = data["kind"]
    if kind == "pointer":
        return ArcKey("pointer", (data["caller"], data["literal"], data["callee"]))
    if kind == "builtin":
        return ArcKey("builtin", ((data["name"], data["arity"]),))
    if kind == "goal":
        term = canonical_goal(parse_term(data["goal"]))
        return ArcKey("goal", (term, data["callee"]))
    raise ValueError(f"unknown arc key kind {kind!r}")


def store_to_dict(store: WeightStore) -> dict:
    """The JSON-ready representation of a store."""
    entries = []
    for key in store.keys():
        entry = store.entry(key)
        entries.append(
            {
                "key": _key_to_json(key),
                "state": entry.state.value,
                "value": entry.value,
            }
        )
    return {"format": "blog-weights-v1", "n": store.n, "a": store.a, "entries": entries}


def store_from_dict(data: dict) -> WeightStore:
    """Rebuild a store from :func:`store_to_dict` output."""
    if data.get("format") != "blog-weights-v1":
        raise ValueError(f"unrecognized weight store format {data.get('format')!r}")
    store = WeightStore(n=data["n"], a=data["a"])
    for item in data["entries"]:
        key = _key_from_json(item["key"])
        state = WeightState(item["state"])
        if state is WeightState.INFINITE:
            store.set_infinite(key)
        elif state is WeightState.KNOWN:
            store.set_known(key, item["value"])
        # UNKNOWN entries are never stored
    return store


def store_delta(store: WeightStore, since: Union[int, None] = None) -> dict:
    """What changed in ``store`` after generation ``since``.

    ``since=None`` means "everything": the full entry set, for a reader
    that has no mirror yet.  The delta is JSON-ready (same key encoding
    as :func:`store_to_dict`) and carries UNKNOWN *tombstones* for keys
    that were dropped (``forget`` / ``clear``) so a mirror applies the
    removal too.  This is what the serving layer ships to a process
    lane on session open — the lane's mirror catches up from whatever
    generation it last saw, instead of receiving the whole store — and
    what a lane ships back on session close (the session's touched keys
    only).
    """
    if since is None:
        keys = list(store.keys())
    else:
        keys = store.modified_since(int(since))
    entries = []
    for key in keys:
        entry = store.entry(key)
        entries.append(
            {
                "key": _key_to_json(key),
                "state": entry.state.value,
                "value": entry.value,
            }
        )
    return {
        "format": DELTA_FORMAT,
        "base": since,
        "generation": store.generation,
        "n": store.n,
        "a": store.a,
        "entries": entries,
    }


def apply_delta(store: WeightStore, delta: dict) -> int:
    """Apply a :func:`store_delta` to a mirror in place.

    Entries are written directly (UNKNOWN tombstones delete) and the
    mirror's generation jumps to the delta's source generation, so a
    later ``store_delta(source, since=mirror.generation)`` yields
    exactly what the mirror still misses.  Returns how many entries
    were applied.
    """
    if delta.get("format") != DELTA_FORMAT:
        raise ValueError(f"unrecognized weight delta format {delta.get('format')!r}")
    generation = int(delta["generation"])
    applied = 0
    for item in delta["entries"]:
        key = _key_from_json(item["key"])
        state = WeightState(item["state"])
        if state is WeightState.UNKNOWN:
            store._entries.pop(key, None)
        else:
            store._entries[key] = WeightEntry(state, float(item["value"]))
        store._modified[key] = generation
        applied += 1
    store.generation = generation
    return applied


def delta_store(delta: dict) -> WeightStore:
    """A standalone store holding just a delta's non-tombstone entries.

    Shaped for :func:`~repro.weights.session.merge_delta`: the
    end-of-session merge iterates the local store's keys, and for a
    served session the "local store" the parent sees *is* the delta the
    lane worker shipped back.  UNKNOWN tombstones are omitted —
    both merge policies treat a local UNKNOWN as "session learned
    nothing here".
    """
    out = WeightStore(n=delta["n"], a=delta["a"])
    for item in delta["entries"]:
        state = WeightState(item["state"])
        if state is WeightState.UNKNOWN:
            continue
        key = _key_from_json(item["key"])
        out._entries[key] = WeightEntry(state, float(item["value"]))
        out._modified[key] = out.generation = out.generation + 1
    return out


def save_store(store: WeightStore, path: Union[str, Path]) -> None:
    """Write the store to ``path`` as JSON, atomically.

    tmp file → flush → fsync → ``os.replace``: a crash at any point
    leaves either the previous store or the new one on disk, never a
    truncated file.  (§5 keeps the global database in secondary
    storage precisely so learning survives the process — a torn write
    would defeat that.)
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    fh = open(tmp, "w", encoding="utf-8")
    try:
        json.dump(store_to_dict(store), fh, indent=1)
        fh.flush()
        os.fsync(fh.fileno())
    finally:
        fh.close()
    os.replace(tmp, path)


def load_store(path: Union[str, Path]) -> WeightStore:
    """Read a store previously written by :func:`save_store`.

    Raises :class:`StoreCorruptError` naming the file when it is
    truncated, not JSON, or not a recognizable store payload.
    """
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise StoreCorruptError(
            f"weight store {path} is not valid JSON ({exc}) — the file is "
            "truncated or damaged"
        ) from exc
    if not isinstance(data, dict):
        raise StoreCorruptError(
            f"weight store {path} does not hold a JSON object"
        )
    try:
        return store_from_dict(data)
    except (ValueError, KeyError, TypeError) as exc:
        raise StoreCorruptError(
            f"weight store {path} is structurally invalid: {exc}"
        ) from exc
