"""Unit tests for the figure-4 linked-list database."""

import pytest

from repro.linkdb import BLOCK_HEADER_WORDS, POINTER_WORDS, LinkedDatabase, fact_graph
from repro.logic import Program, parse_clause
from repro.ortree import ArcKey
from repro.weights import WeightStore

from .store_writes import put_known


class TestFigure4Structure:
    """The §5 worked example: a :- b, c, d.  b :- e.  b :- f. ..."""

    @pytest.fixture
    def db(self, section5_program):
        return LinkedDatabase(section5_program)

    def test_one_block_per_clause(self, db, section5_program):
        assert len(db) == len(section5_program)

    def test_a_block_has_four_pointers(self, db):
        """Block for a :- b,c,d points at both b clauses, c and d."""
        a_block = db.block(0)
        assert len(a_block.pointers) == 4
        names = [p.name for p in a_block.pointers]
        assert names == ["b", "b", "c", "d"]

    def test_pointer_targets(self, db):
        a_block = db.block(0)
        b_targets = [p.target for p in a_block.pointers if p.name == "b"]
        assert [str(db.block(t).clause) for t in b_targets] == [
            "b :- e.",
            "b :- f.",
        ]

    def test_facts_have_no_pointers(self, db):
        for block in db:
            if block.is_fact:
                assert block.pointers == []

    def test_pointers_for_literal(self, db):
        a_block = db.block(0)
        assert len(a_block.pointers_for_literal(0)) == 2  # two b's
        assert len(a_block.pointers_for_literal(1)) == 1
        assert len(a_block.pointers_for_literal(2)) == 1

    def test_render_shows_weights(self, db):
        text = db.block(0).render()
        assert "b[0] -> block" in text
        assert "weight" in text


class TestWeights:
    def test_default_weights_unknown(self, section5_program):
        store = WeightStore(n=8, a=4)
        db = LinkedDatabase(section5_program, store)
        for block in db:
            for p in block.pointers:
                assert p.weight == store.unknown_value

    def test_refresh_weights_syncs(self, section5_program):
        store = WeightStore(n=8, a=4)
        db = LinkedDatabase(section5_program, store)
        a_block = db.block(0)
        k = a_block.pointers[1].arc_key(0)
        put_known(store, k, 3.0)
        db.refresh_weights()
        assert a_block.pointers[1].weight == 3.0

    def test_arc_key_matches_ortree_convention(self, section5_program):
        db = LinkedDatabase(section5_program)
        p = db.block(0).pointers[0]
        assert p.arc_key(0) == ArcKey("pointer", (0, 0, p.target))


class TestInvertedFileUpdate:
    def test_add_clause_wires_new_block(self, section5_program):
        db = LinkedDatabase(section5_program)
        cid = db.add_clause(parse_clause("i :- b."))
        block = db.block(cid)
        assert [p.name for p in block.pointers] == ["b", "b"]

    def test_add_clause_updates_existing_blocks(self, section5_program):
        db = LinkedDatabase(section5_program)
        before = len(db.block(0).pointers)
        db.add_clause(parse_clause("b :- g."))  # third way to prove b
        after = len(db.block(0).pointers)
        assert after == before + 1

    def test_program_and_db_stay_consistent(self, section5_program):
        db = LinkedDatabase(section5_program)
        db.add_clause(parse_clause("c :- h."))
        db2 = LinkedDatabase(db.program)  # rebuild from scratch
        assert db2.pointer_count == db.pointer_count


class TestSizes:
    def test_block_size_formula(self):
        p = Program.from_source("q(a) :- r(a, b).")
        db = LinkedDatabase(p)
        block = db.block(0)
        # header 2 + head q(a)=2 + body r(a,b)=3 + 0 pointers (r undefined)
        assert block.size_words == BLOCK_HEADER_WORDS + 2 + 3

    def test_pointer_words_counted(self, section5_program):
        db = LinkedDatabase(section5_program)
        a_block = db.block(0)
        base = BLOCK_HEADER_WORDS + 1 + 3  # head 'a' + three body atoms
        assert a_block.size_words == base + 4 * POINTER_WORDS

    def test_total_words_positive(self, figure1):
        db = LinkedDatabase(figure1)
        assert db.total_words > 0
        assert db.total_words == sum(b.size_words for b in db)


class TestGraphViews:
    def test_pointer_graph(self, section5_program):
        db = LinkedDatabase(section5_program)
        g = db.as_graph()
        assert g.number_of_nodes() == len(db)
        assert g.number_of_edges() == db.pointer_count

    def test_fact_graph_figure2(self, figure1):
        """Figure 2: persons as nodes, f/m relations as arcs."""
        g = fact_graph(figure1)
        assert g.has_edge("sam", "larry")
        assert g.has_edge("larry", "den")
        assert g.has_edge("peg", "doug")
        # 10 facts -> 10 arcs
        assert g.number_of_edges() == 10
        labels = {d["label"] for _, _, d in g.edges(data=True)}
        assert labels == {"f", "m"}

    def test_fact_graph_skips_rules_and_nonbinary(self):
        p = Program.from_source("r(a). f(x, y). g(a, b, c). h(X, y).")
        g = fact_graph(p)
        assert g.number_of_edges() == 1  # only f(x,y)


class TestBlocksForIndicator:
    def test_lookup(self, section5_program):
        db = LinkedDatabase(section5_program)
        bs = db.blocks_for(("b", 0))
        assert len(bs) == 2

    def test_missing_indicator(self, section5_program):
        db = LinkedDatabase(section5_program)
        assert db.blocks_for(("zzz", 3)) == []
