"""Persisting the global weight database (§5's "global database in
secondary storage") to JSON.

The paper keeps the global weights on disk between sessions; the SPD
write-back (:mod:`repro.spd.weights_io`) models the *cost* of that, and
this module provides the practical library feature: save/load a
:class:`WeightStore` so learning survives process restarts.

Arc keys serialize structurally, goal-policy keys' terms included, so
every key round-trips exactly.  The same entry encoding serves a whole
store (:func:`store_to_dict`) and a :class:`~repro.weights.store.StoreDelta`
(:func:`delta_to_dict`, the payload of a WAL record): JSON exists only
here, at the disk.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path
from typing import Iterable, Union

from ..logic.parser import parse_term
from ..logic.terms import Atom, Int, Struct, Term, Var
from ..ortree.tree import ArcKey, canonical_goal
from .store import StoreDelta, WeightEntry, WeightState, WeightStore

__all__ = [
    "save_store",
    "load_store",
    "store_to_dict",
    "store_from_dict",
    "delta_to_dict",
    "delta_from_dict",
    "entry_to_json",
    "atomic_write",
    "StoreCorruptError",
]

STORE_FORMAT = "blog-weights-v1"
DELTA_FORMAT = "blog-weights-delta-v1"

#: the stores' file layout: one JSON value per line, one space per level
INDENTED = json.JSONEncoder(indent=1)


class StoreCorruptError(ValueError):
    """A persisted weight store could not be decoded.

    Raised by :func:`load_store` (and the WAL snapshot loader) instead
    of the raw ``json.JSONDecodeError``/``KeyError`` traceback, so an
    operator sees *which file* is damaged and what to do about it.
    """


def _term_to_json(term: Term) -> object:
    """A canonical goal as JSON: an atom as a string, an integer as a
    number, a variable as ``{"var": k}`` for canonical ``_Ck``, and a
    struct as ``[functor, args...]``."""
    if isinstance(term, Atom):
        return term.name
    if isinstance(term, Int):
        return term.value
    if isinstance(term, Var):
        return {"var": -term.id}
    if isinstance(term, Struct):
        return [term.functor, *map(_term_to_json, term.args)]
    raise ValueError(f"cannot encode term {term!r}")


def _term_from_json(data) -> Term:
    if isinstance(data, str):
        return Atom(data)
    if isinstance(data, int):
        return Int(data)
    if isinstance(data, dict):
        k = int(data["var"])
        return Var(f"_C{k}", vid=-k)
    return Struct(data[0], [_term_from_json(a) for a in data[1:]])


def _key_to_json(key: ArcKey) -> dict:
    if key.kind == "pointer":
        caller, literal, callee = key.key
        return {"kind": "pointer", "caller": caller, "literal": literal, "callee": callee}
    if key.kind == "builtin":
        (indicator,) = key.key
        return {"kind": "builtin", "name": indicator[0], "arity": indicator[1]}
    if key.kind == "goal":
        term, callee = key.key
        return {"kind": "goal", "term": _term_to_json(term), "callee": callee}
    raise ValueError(f"unknown arc key kind {key.kind!r}")


def _key_from_json(data: dict) -> ArcKey:
    kind = data["kind"]
    if kind == "pointer":
        return ArcKey("pointer", (data["caller"], data["literal"], data["callee"]))
    if kind == "builtin":
        return ArcKey("builtin", ((data["name"], data["arity"]),))
    if kind == "goal":
        if "term" in data:
            term = _term_from_json(data["term"])
        else:  # the term text earlier versions wrote
            term = canonical_goal(parse_term(data["goal"]))
        return ArcKey("goal", (term, data["callee"]))
    raise ValueError(f"unknown arc key kind {kind!r}")


def entry_to_json(key: ArcKey, entry: WeightEntry) -> dict:
    """One store entry as :func:`store_to_dict` lists it."""
    return {"key": _key_to_json(key), "state": entry.state.value, "value": entry.value}


def store_to_dict(store: WeightStore) -> dict:
    """The JSON-ready representation of a store."""
    entries = [entry_to_json(k, e) for k, e in store.snapshot().items()]
    return {"format": STORE_FORMAT, "n": store.n, "a": store.a, "entries": entries}


def store_from_dict(data: dict, generation: int = 0) -> WeightStore:
    """Rebuild a store from :func:`store_to_dict` output, as one delta.

    Builtin keys and UNKNOWN entries are skipped, KNOWN values clamp at
    0 and INFINITE ones take the store's A·N; a non-finite KNOWN value
    raises ValueError.  The store's generation is its entry count, or
    ``generation`` (a snapshot's saved counter) if that is higher.
    """
    if data.get("format") != STORE_FORMAT:
        raise ValueError(f"unrecognized weight store format {data.get('format')!r}")
    store = WeightStore(n=data["n"], a=data["a"])
    entries: dict[ArcKey, WeightEntry] = {}
    for item in data["entries"]:
        key = _key_from_json(item["key"])
        state = WeightState(item["state"])
        if key.kind == "builtin" or state is WeightState.UNKNOWN:
            continue
        if state is WeightState.INFINITE:
            entries[key] = WeightEntry(state, store.infinity_value)
            continue
        value = float(item["value"])
        if not math.isfinite(value):
            raise ValueError(f"known weight {value} is not finite")
        entries[key] = WeightEntry(state, max(0.0, value))
    store.apply_delta(StoreDelta(0, max(len(entries), generation), entries))
    return store


def delta_to_dict(delta: StoreDelta, n: float, a: int) -> dict:
    """The JSON-ready form of a delta (a WAL record's ``delta``), for a
    store with encodings ``n`` and ``a``."""
    return {
        "format": DELTA_FORMAT,
        "base": delta.base,
        "generation": delta.generation,
        "n": n,
        "a": a,
        "entries": [entry_to_json(k, e) for k, e in delta.entries.items()],
    }


def delta_from_dict(data: dict) -> StoreDelta:
    """Rebuild a delta from :func:`delta_to_dict` output."""
    if data.get("format") != DELTA_FORMAT:
        raise ValueError(f"unrecognized weight delta format {data.get('format')!r}")
    entries = {
        _key_from_json(item["key"]): WeightEntry(
            WeightState(item["state"]), float(item["value"])
        )
        for item in data["entries"]
    }
    return StoreDelta(data["base"], int(data["generation"]), entries)


def atomic_write(path: Union[str, Path], chunks: Iterable[str]) -> None:
    """Write the text ``chunks`` to ``path``, atomically and durably.

    tmp file → flush → fsync → ``os.replace`` → directory fsync: a crash
    at any point leaves either the previous file or the new one on disk,
    never a truncated file, and once this returns the rename itself
    survives a power cut.  (§5 keeps the global database in secondary
    storage precisely so learning survives the process — a torn write
    would defeat that.)
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    fh = open(tmp, "w", encoding="utf-8")
    try:
        for chunk in chunks:
            fh.write(chunk)
        fh.flush()
        os.fsync(fh.fileno())
    finally:
        fh.close()
    os.replace(tmp, path)
    dir_fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def save_store(store: WeightStore, path: Union[str, Path]) -> None:
    """Write the store to ``path`` as JSON, with :func:`atomic_write`."""
    atomic_write(path, INDENTED.iterencode(store_to_dict(store)))


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
