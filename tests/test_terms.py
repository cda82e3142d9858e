"""Unit tests for the term algebra."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.logic import (
    NIL,
    Atom,
    Int,
    Struct,
    Var,
    is_list,
    list_to_python,
    make_list,
    term_depth,
    term_size,
    term_vars,
    variant_of,
)
from repro.logic.terms import to_term


class TestAtom:
    def test_equality_by_name(self):
        assert Atom("sam") == Atom("sam")
        assert Atom("sam") != Atom("larry")

    def test_hashable(self):
        assert len({Atom("a"), Atom("a"), Atom("b")}) == 2

    def test_str(self):
        assert str(Atom("sam")) == "sam"

    def test_indicator(self):
        assert Atom("true").indicator == ("true", 0)


class TestInt:
    def test_equality(self):
        assert Int(3) == Int(3)
        assert Int(3) != Int(4)

    def test_not_equal_to_atom(self):
        assert Int(3) != Atom("3")

    def test_negative(self):
        assert str(Int(-5)) == "-5"

    def test_no_indicator(self):
        with pytest.raises(TypeError):
            Int(1).indicator


class TestVar:
    def test_fresh_vars_distinct(self):
        assert Var("X") != Var("X")

    def test_same_id_equal(self):
        v = Var("X")
        assert v == Var("X", vid=v.id)

    def test_anonymous_str(self):
        v = Var("_")
        assert str(v).startswith("_G")

    def test_named_str(self):
        assert str(Var("Foo")) == "Foo"


class TestStruct:
    def test_requires_args(self):
        with pytest.raises(ValueError):
            Struct("f", [])

    def test_equality_structural(self):
        a = Struct("f", (Atom("a"), Int(1)))
        b = Struct("f", (Atom("a"), Int(1)))
        assert a == b and hash(a) == hash(b)

    def test_inequality_functor(self):
        assert Struct("f", (Atom("a"),)) != Struct("g", (Atom("a"),))

    def test_indicator(self):
        assert Struct("f", (Atom("a"), Atom("b"))).indicator == ("f", 2)

    def test_str(self):
        t = Struct("gf", (Atom("sam"), Var("G", vid=999)))
        assert str(t) == "gf(sam, G)"

    def test_walk_preorder(self):
        t = Struct("f", (Struct("g", (Atom("a"),)), Atom("b")))
        names = [getattr(x, "functor", getattr(x, "name", None)) for x in t.walk()]
        assert names == ["f", "g", "a", "b"]

    def test_cached_size_and_ground(self):
        g = Struct("f", (Atom("a"), make_list([Int(1), Int(2)])))
        assert (g.size, g.ground) == (7, True)
        t = Struct("f", (g, Struct("h", (Var("X"),))))
        assert (t.size, t.ground) == (10, False)
        assert (Atom("a").size, Atom("a").ground) == (1, True)
        assert (Int(3).size, Int(3).ground) == (1, True)
        assert (Var("X").size, Var("X").ground) == (1, False)

    def test_pickle_roundtrip_recomputes_cached_fields(self):
        t = Struct("f", (Atom("sam"), Struct("g", (Var("X", vid=7),))))
        hash(t)
        u = pickle.loads(pickle.dumps(t))
        assert u == t and hash(u) == hash(t)
        assert (u.size, u.ground) == (t.size, t.ground)

    def test_unpickled_struct_matches_fresh_one_under_another_hash_seed(self):
        """A pickled Struct must not carry its hash into a process whose
        string hashing is seeded differently (a ``spawn`` child)."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        dump = (
            "import pickle, sys\n"
            "from repro.logic.terms import Atom, Struct\n"
            "t = Struct('f', (Atom('sam'),))\n"
            "hash(t)\n"
            "sys.stdout.buffer.write(pickle.dumps(t))\n"
        )
        load = (
            "import pickle, sys\n"
            "from repro.logic.terms import Atom, Struct\n"
            "t = pickle.loads(sys.stdin.buffer.read())\n"
            "fresh = Struct('f', (Atom('sam'),))\n"
            "assert t == fresh, 'pickled != fresh'\n"
            "assert {fresh: 1}.get(t) == 1, 'dict lookup missed'\n"
        )

        def run(code, seed, data=None):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
            return subprocess.run(
                [sys.executable, "-c", code], input=data, env=env,
                capture_output=True, check=True, timeout=60,
            ).stdout

        run(load, "2", run(dump, "1"))


class TestLists:
    def test_make_and_unmake(self):
        items = [Int(1), Int(2), Int(3)]
        lst = make_list(items)
        assert is_list(lst)
        assert list_to_python(lst) == items

    def test_empty_list(self):
        assert make_list([]) == NIL
        assert list_to_python(NIL) == []

    def test_improper_list_detected(self):
        improper = make_list([Int(1)], tail=Atom("x"))
        assert not is_list(improper)
        with pytest.raises(ValueError):
            list_to_python(improper)

    def test_str_rendering(self):
        assert str(make_list([Int(1), Int(2)])) == "[1, 2]"

    def test_str_improper(self):
        assert str(make_list([Int(1)], tail=Var("T", vid=123))) == "[1|T]"


class TestMeasures:
    def test_term_size(self):
        t = Struct("f", (Atom("a"), Struct("g", (Var("X"),))))
        assert term_size(t) == 4

    def test_term_depth(self):
        assert term_depth(Atom("a")) == 1
        t = Struct("f", (Struct("g", (Atom("a"),)),))
        assert term_depth(t) == 3

    def test_term_vars_order_and_dedup(self):
        x, y = Var("X"), Var("Y")
        t = Struct("f", (x, y, x))
        assert term_vars(t) == [x, y]


class TestVariantOf:
    def test_variant_same_structure(self):
        a = Struct("f", (Var("X"), Var("Y"), Var("X")))
        # rebuild with consistent sharing
        x1, y1 = Var("X"), Var("Y")
        a = Struct("f", (x1, y1, x1))
        x2, y2 = Var("P"), Var("Q")
        b = Struct("f", (x2, y2, x2))
        assert variant_of(a, b)

    def test_not_variant_when_sharing_differs(self):
        x1, y1 = Var("X"), Var("Y")
        a = Struct("f", (x1, x1))
        b = Struct("f", (Var("P"), Var("Q")))
        assert not variant_of(a, b)

    def test_not_variant_different_atoms(self):
        assert not variant_of(Atom("a"), Atom("b"))

    def test_atom_variant(self):
        assert variant_of(Atom("a"), Atom("a"))


class TestToTerm:
    def test_coercions(self):
        assert to_term("x") == Atom("x")
        assert to_term(7) == Int(7)
        t = Atom("y")
        assert to_term(t) is t

    def test_bool_rejected(self):
        with pytest.raises(TypeError):
            to_term(True)

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            to_term(1.5)
