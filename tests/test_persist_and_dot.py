"""Tests for weight-store persistence and OR-tree export."""

import json

import pytest

from repro.core import BLogConfig, BLogEngine
from repro.ortree import ArcKey, OrTree
from repro.ortree.dot import to_dot, to_networkx
from repro.weights import WeightStore
from repro.weights.persist import (
    StoreCorruptError,
    load_store,
    save_store,
    store_from_dict,
    store_to_dict,
)
from repro.workloads import family_program

from .store_writes import put_infinite, put_known


class TestPersistence:
    def test_roundtrip_pointer_keys(self, tmp_path):
        store = WeightStore(n=8, a=16)
        put_known(store, ArcKey("pointer", (0, 1, 5)), 2.5)
        put_infinite(store, ArcKey("pointer", (2, 0, 7)))
        path = tmp_path / "weights.json"
        save_store(store, path)
        loaded = load_store(path)
        assert loaded.n == 8 and loaded.a == 16
        assert loaded.weight(ArcKey("pointer", (0, 1, 5))) == 2.5
        assert loaded.is_infinite(ArcKey("pointer", (2, 0, 7)))
        assert len(loaded) == len(store)

    def test_roundtrip_goal_keys(self):
        from repro.logic import parse_term
        from repro.ortree import canonical_goal

        store = WeightStore(n=8, a=16)
        key = ArcKey("goal", (canonical_goal(parse_term("f(sam, X)")), 3))
        put_known(store, key, 1.5)
        loaded = store_from_dict(store_to_dict(store))
        assert loaded.weight(key) == 1.5

    def test_roundtrip_after_learning(self, tmp_path, figure1):
        eng = BLogEngine(figure1, BLogConfig(n=8, a=16))
        eng.begin_session()
        eng.query("gf(sam, G)")
        eng.end_session()
        path = tmp_path / "learned.json"
        save_store(eng.sessions.global_store, path)
        loaded = load_store(path)
        # a fresh engine seeded with the loaded store is warm
        eng2 = BLogEngine(figure1, BLogConfig(n=8, a=16), global_store=loaded)
        warm = eng2.query("gf(sam, G)", max_solutions=1, update_weights=False)
        cold = BLogEngine(figure1, BLogConfig(n=8, a=16)).query(
            "gf(sam, G)", max_solutions=1, update_weights=False
        )
        assert warm.expansions_to_first < cold.expansions_to_first

    def test_bad_format_rejected(self):
        with pytest.raises(ValueError):
            store_from_dict({"format": "something-else"})

    def test_json_is_valid(self, tmp_path):
        store = WeightStore()
        put_known(store, ArcKey("pointer", (0, 0, 1)), 1.0)
        path = tmp_path / "w.json"
        save_store(store, path)
        data = json.loads(path.read_text())
        assert data["format"] == "blog-weights-v1"
        assert len(data["entries"]) == 1


def stored(*items) -> dict:
    """A store file's content: n 8, a 16, one entry per ``(key, state, value)``."""
    entries = [
        {"key": {"kind": "pointer", "caller": k[0], "literal": k[1], "callee": k[2]},
         "state": state, "value": value}
        for k, state, value in items
    ]
    return {"format": "blog-weights-v1", "n": 8, "a": 16, "entries": entries}


class TestLoadChecks:
    """Loading is the one write path for data from outside: it keeps the
    checks the store setters made, and commits the file as one delta."""

    def test_load_clamps_negative_known_at_zero(self):
        store = store_from_dict(stored(((0, 0, 1), "known", -3.0)))
        assert store.weight(ArcKey("pointer", (0, 0, 1))) == 0.0

    def test_load_skips_builtin_keys(self):
        data = stored(((0, 0, 1), "known", 2.0))
        builtin = {"kind": "builtin", "name": "is", "arity": 2}
        data["entries"].append({"key": builtin, "state": "known", "value": 5.0})
        data["entries"].append({"key": builtin, "state": "infinite", "value": 128.0})
        store = store_from_dict(data)
        assert len(store) == 1 and store.generation == 1
        assert store.weight(ArcKey("builtin", (("is", 2),))) == 0.0

    def test_load_prices_infinity_by_the_store(self):
        data = stored(((0, 0, 1), "infinite", 1.0), ((0, 0, 2), "unknown", 9.0))
        store = store_from_dict(data)
        assert store.weight(ArcKey("pointer", (0, 0, 1))) == 128.0
        assert len(store) == 1

    def test_generation_is_the_entry_count(self):
        data = stored(((0, 0, 1), "known", 1.0), ((0, 0, 2), "infinite", 128.0))
        assert store_from_dict(data).generation == 2
        assert store_from_dict(data, generation=7).generation == 7
        assert store_from_dict(data, generation=1).generation == 2

    @pytest.mark.parametrize("value", ["Infinity", "-Infinity", "NaN"])
    def test_non_finite_known_weight_names_the_file(self, tmp_path, value):
        path = tmp_path / "w.json"
        text = json.dumps(stored(((0, 0, 1), "known", 1.0)))
        path.write_text(text.replace('"value": 1.0', f'"value": {value}'))
        with pytest.raises(StoreCorruptError, match="w.json"):
            load_store(path)


class TestDotExport:
    @pytest.fixture
    def tree(self, figure1):
        t = OrTree(figure1, "gf(sam, G)", weight_fn=lambda k: 1.0)
        t.expand_all()
        return t

    def test_dot_structure(self, tree):
        dot = to_dot(tree, title="figure 3")
        assert dot.startswith("digraph")
        assert dot.count("->") == len(tree.arcs)
        assert "palegreen" in dot  # solutions colored
        assert "lightcoral" in dot  # failure colored
        assert "figure 3" in dot

    def test_dot_escapes_quotes(self, figure1):
        tree = OrTree(figure1, "gf(sam, G)")
        tree.expand(0)
        dot = to_dot(tree)
        # every non-label quote is balanced; crude sanity: parses as lines
        assert all(line.count('"') % 2 == 0 for line in dot.splitlines())

    def test_networkx_export(self, tree):
        g = to_networkx(tree)
        assert g.number_of_nodes() == len(tree.nodes)
        assert g.number_of_edges() == len(tree.arcs)
        statuses = {d["status"] for _, d in g.nodes(data=True)}
        assert "solution" in statuses and "failure" in statuses
        # bounds increase along every edge (monotone weights)
        for u, v in g.edges:
            assert g.nodes[v]["bound"] >= g.nodes[u]["bound"]
