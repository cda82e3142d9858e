"""Work that depends only on the program is done once, not per step.

* A weight read allocates nothing: absent keys read one shared entry
  (all builtin keys one, all unknown keys of a store another), and
  ``weight`` agrees with ``entry`` in every state the writes can reach.
* An ``OrTree`` builds each pointer arc key once per (caller clause,
  literal index, callee) and each clause's body goal sources once.
* ``ArcKey`` is a tuple: it round-trips through the JSON key codec and
  pickle, prints as before, and keys the marginal and conditional stores.
"""

from __future__ import annotations

import json
import pickle
import random

import pytest

from repro.logic import Program, parse_term
from repro.ortree import OrTree
from repro.ortree.tree import ArcKey, NodeStatus, canonical_goal
from repro.weights.conditional import ConditionalWeightStore
from repro.weights.persist import _key_from_json, _key_to_json
from repro.weights.store import SessionStore, StoreDelta, WeightState, WeightStore
from repro.workloads import nqueens_program, nqueens_query, nrev_program, nrev_query

IS = ArcKey("builtin", (("is", 2),))
GT = ArcKey("builtin", ((">", 2),))


def pointer(i: int) -> ArcKey:
    return ArcKey("pointer", (0, i % 3, i))


# -- shared absent-key entries ------------------------------------------------------


def test_absent_keys_read_shared_entries():
    store = WeightStore(n=10, a=4)
    assert store.entry(pointer(1)) is store.entry(pointer(2))
    assert store.entry(pointer(1)).state is WeightState.UNKNOWN
    assert store.entry(IS) is store.entry(GT)
    assert store.entry(IS).state is WeightState.KNOWN and store.entry(IS).value == 0.0
    # the builtin entry is shared by every store; the unknown one is per store
    other = WeightStore(n=20, a=4)
    assert other.entry(IS) is store.entry(IS)
    assert other.entry(pointer(1)).value == 21.0 and store.entry(pointer(1)).value == 11.0


def _check_reads(store: WeightStore, keys) -> None:
    for k in keys:
        e = store.entry(k)
        assert store.weight(k) == e.value
        assert store.state(k) is e.state
        assert store.is_known(k) == (e.state is WeightState.KNOWN)
        assert store.is_unknown(k) == (e.state is WeightState.UNKNOWN)
        assert store.is_infinite(k) == (e.state is WeightState.INFINITE)


@pytest.mark.parametrize("seed", range(8))
def test_weight_agrees_with_entry_in_every_state(seed):
    """On a store, and on a session overlay open on it whose reads fall
    through, hold before-images or hold the session's own writes."""
    rng = random.Random(seed)
    keys = [pointer(i) for i in range(6)] + [IS, GT]
    store = WeightStore(n=rng.choice((4.0, 16.0)), a=rng.choice((2, 16)))
    session = SessionStore(store)
    source = WeightStore(n=store.n, a=store.a)
    _check_reads(store, keys)
    _check_reads(session, keys)
    for _ in range(60):
        op = rng.randrange(6)
        k = rng.choice(keys)
        target = rng.choice((store, session))
        if op == 0:
            target.set_known(k, rng.uniform(-2.0, 20.0))
        elif op == 1:
            target.set_infinite(k)
        elif op == 2:
            target.forget(k)
        elif op == 3 and rng.random() < 0.3:
            target.clear()
        elif op == 4:
            # a mirror catching up with one committed entry, or with a
            # tombstone deleting it
            if rng.random() < 0.5:
                source.set_known(k, rng.uniform(0.0, 8.0))
            else:
                source.forget(k)
            store.apply_delta(StoreDelta(None, source.generation, {k: source.entry(k)}))
        else:
            source.set_infinite(k)
            store.apply_delta(StoreDelta(None, source.generation, source.snapshot()))
        _check_reads(store, keys)
        _check_reads(session, keys)


# -- per-tree key and source caches -------------------------------------------------------


@pytest.mark.parametrize(
    "program, query",
    [
        (nqueens_program(4), nqueens_query()),
        (nrev_program(), nrev_query(8)[0]),
        (Program.from_source("p :- q, q.\np :- r, q.\nq.\nq :- r.\nr.\n"), "p"),
    ],
    ids=["queens4", "nrev8", "literals"],
)
def test_equal_arc_keys_are_one_object(program, query):
    tree = OrTree(program, query, max_depth=64)
    tree.expand_all()
    first: dict[ArcKey, ArcKey] = {}
    for arc in tree.arcs:
        assert first.setdefault(arc.key, arc.key) is arc.key, arc.key
    assert len(first) > 1


def test_pointer_keys_tell_literals_apart():
    """Two literals of one clause calling one clause are two pointers
    (figure 4): a key cache must not merge them."""
    tree = OrTree(Program.from_source("p :- q, q.\nq.\n"), "p")
    tree.expand_all()
    keys = [arc.key for arc in tree.arcs]
    assert keys == [
        ArcKey("pointer", (-1, 0, 0)),
        ArcKey("pointer", (0, 0, 1)),
        ArcKey("pointer", (0, 1, 1)),
    ]


def test_children_of_one_clause_share_one_sources_tuple():
    """Every step of ``nat(X)`` leaves one goal, so a child's sources are
    exactly its clause's body sources."""
    program = Program.from_source("nat(z).\nnat(s(X)) :- nat(X).\nnat(s(s(X))) :- nat(X).\n")
    tree = OrTree(program, "nat(X)", max_depth=6)
    tree.expand_all()
    by_clause: dict[int, list] = {}
    for node in tree.nodes[1:]:
        if node.status is not NodeStatus.SOLUTION:
            by_clause.setdefault(node.arc.key.key[2], []).append(node.goal_sources)
    assert set(by_clause) == {1, 2}
    for cid, sources in by_clause.items():
        assert len(sources) > 2
        assert all(s is sources[0] for s in sources), cid
        assert sources[0] == ((cid, 0),)


# -- ArcKey as a tuple --------------------------------------------------------------------


KEYS = [
    ArcKey("pointer", (0, 1, 5)),
    ArcKey("pointer", (-1, 0, 0)),
    IS,
    ArcKey("goal", (canonical_goal(parse_term("f(sam, X, g(Y, X))")), 3)),
]


@pytest.mark.parametrize("key", KEYS, ids=str)
def test_arc_key_round_trips(key):
    back = _key_from_json(json.loads(json.dumps(_key_to_json(key))))
    assert back == key and hash(back) == hash(key) and type(back) is ArcKey
    loaded = pickle.loads(pickle.dumps(key))
    assert loaded == key and hash(loaded) == hash(key) and type(loaded) is ArcKey


def test_arc_key_prints_and_compares_as_before():
    assert str(ArcKey("pointer", (0, 1, 5))) == "pointer:(0, 1, 5)"
    assert str(IS) == "builtin:(('is', 2),)"
    assert repr(IS) == "ArcKey(kind='builtin', key=(('is', 2),))"
    key = ArcKey("pointer", (0, 1, 5))
    assert key.kind == "pointer" and key.key == (0, 1, 5)
    assert key == ("pointer", (0, 1, 5)) and hash(key) == hash(("pointer", (0, 1, 5)))
    assert key != ArcKey("pointer", (0, 1, 6))


def test_arc_key_keys_the_stores():
    store = WeightStore(n=16, a=16)
    store.set_known(ArcKey("pointer", (0, 1, 5)), 2.5)
    assert store.weight(ArcKey("pointer", (0, 1, 5))) == 2.5
    assert ArcKey("pointer", (0, 1, 5)) in store
    cond = ConditionalWeightStore(n=16, a=16)
    prev, key = ArcKey("pointer", (-1, 0, 0)), ArcKey("pointer", (0, 1, 5))
    cond.set_known(prev, key, 3.0)
    cond.set_infinite(None, key)
    assert cond.weight(ArcKey("pointer", (-1, 0, 0)), ArcKey("pointer", (0, 1, 5))) == 3.0
    assert cond.is_infinite(None, ArcKey("pointer", (0, 1, 5)))
    assert cond.is_unknown(ArcKey("pointer", (0, 1, 6)), ArcKey("pointer", (0, 1, 5)))
    assert cond.table_entries == 2
