"""F4 — Figure 4: the linked-list structure with weighted pointers.

Regenerates the §5 worked example: the clause set A:-B,C,D / B:-E /
B:-F / C:-G / D:-H as blocks with named weighted pointers, and the two
search-order walkthroughs the section narrates:

* with the second B pointer at weight 3 (and the first at 0 after the
  text's comparison step), B-LOG expands B2's body first, then B1 —
  "similar to a breadth-first search";
* with the first B pointer at weight 1, the chain through B:-E is
  extended before B2 — "this appears to be a depth-first search".
"""

from conftest import emit, emit_text

from repro.core import BLogConfig, BLogEngine
from repro.linkdb import LinkedDatabase
from repro.logic import Program
from repro.ortree import ArcKey, OrTree, best_first
from repro.weights import StoreDelta, WeightEntry, WeightState, WeightStore

SECTION5_SOURCE = """\
a :- b, c, d.
b :- e.
b :- f.
c :- g.
d :- h.
e. f. g. h.
"""


def make_db():
    program = Program.from_source(SECTION5_SOURCE)
    store = WeightStore(n=16, a=16)
    return program, store, LinkedDatabase(program, store)


def test_fig4_block_structure(benchmark):
    program, store, db = make_db()
    rebuilt = benchmark(LinkedDatabase, program, store)
    assert len(rebuilt) == len(program)
    emit_text("F4", "linked-list blocks (figure 4)", db.render())
    emit(
        "F4",
        "database footprint (the §5 size cost of per-arc weights)",
        [
            {
                "blocks": len(db),
                "pointers": db.pointer_count,
                "total_words": db.total_words,
                "pointer_words": db.pointer_count * 3,
            }
        ],
    )


def expansion_order(store):
    """Expand the §5 query ?- a best-first; return the goal expansion order."""
    program = Program.from_source(SECTION5_SOURCE)
    tree = OrTree(program, "a", weight_fn=store.weight_fn(), max_depth=16)
    order = []
    res = best_first(tree, max_solutions=1)
    for node in tree.nodes:
        if node.status.value in ("expanded", "solution") and node.arc is not None:
            order.append(
                {
                    "bound": node.bound,
                    "resolvent": ", ".join(str(g) for g in node.goals) or "solution",
                }
            )
    return order, res


def known_store(*pointers) -> WeightStore:
    """A store (N 16, A 16) holding each ``(pointer, weight)`` as KNOWN."""
    store = WeightStore(n=16, a=16)
    entries = {
        ArcKey("pointer", p): WeightEntry(WeightState.KNOWN, w) for p, w in pointers
    }
    store.apply_delta(StoreDelta(0, len(entries), entries))
    return store


def test_fig4_search_order_weight3(benchmark):
    """§5 walkthrough 1: B2 (weight 3) expanded, then B1 — breadth-like."""
    program = Program.from_source(SECTION5_SOURCE)
    # pointer ids: block 0 is a:-b,c,d; its pointers: b1->1, b2->2, c->3, d->4
    store = known_store(
        ((0, 0, 1), 4.0),  # first b
        ((0, 0, 2), 3.0),  # second b (lowest)
        ((0, 1, 3), 5.0),
        ((0, 2, 4), 5.0),
        ((2, 0, 6), 2.0),  # b:-f body pointer f
        ((1, 0, 5), 2.0),  # b:-e body pointer e
    )

    def run():
        tree = OrTree(program, "a", weight_fn=store.weight_fn(), max_depth=16)
        return best_first(tree, max_solutions=1), tree

    (res, tree) = benchmark(run)
    assert res.found
    # the root's child is the a:-b,c,d resolvent; among ITS children the
    # second b pointer (weight 3) carries the least bound, as §5 narrates
    resolvent = tree.node(tree.root.children[0])
    fanout = sorted(
        (tree.node(c) for c in resolvent.children), key=lambda n: n.bound
    )
    assert fanout[0].arc.key.key == (0, 0, 2)
    order, _ = expansion_order(store)
    emit("F4", "search order, second-B pointer weight 3 (breadth-like)", order)


def test_fig4_search_order_weight1(benchmark):
    """§5 walkthrough 2: first B at weight 1 -> chain through B:-E grows
    first (depth-first-like order)."""
    program = Program.from_source(SECTION5_SOURCE)
    store = known_store(
        ((0, 0, 1), 1.0),  # first b now cheapest
        ((0, 0, 2), 3.0),
        ((0, 1, 3), 5.0),
        ((0, 2, 4), 5.0),
        ((1, 0, 5), 1.0),  # e under b:-e
        ((2, 0, 6), 2.0),
    )

    def run():
        tree = OrTree(program, "a", weight_fn=store.weight_fn(), max_depth=16)
        return best_first(tree, max_solutions=1), tree

    res, tree = benchmark(run)
    assert res.found
    # below the a:-b,c,d resolvent, the b:-e child (pointer (0,0,1)) is
    # expanded (its own child via e exists) — the depth-like order
    resolvent = tree.node(tree.root.children[0])
    b1 = next(
        tree.node(c)
        for c in resolvent.children
        if tree.node(c).arc.key.key == (0, 0, 1)
    )
    assert b1.children
    order, _ = expansion_order(store)
    emit("F4", "search order, first-B pointer weight 1 (depth-like)", order)


def test_fig4_engine_on_section5(benchmark):
    """The full adaptive engine on the §5 clause set."""
    program = Program.from_source(SECTION5_SOURCE)

    def run():
        eng = BLogEngine(program, BLogConfig(n=16, a=16, max_depth=16))
        eng.begin_session()
        r1 = eng.query("a")
        r2 = eng.query("a")
        eng.end_session()
        return r1, r2

    r1, r2 = benchmark(run)
    assert r1.solved and r2.solved
    emit(
        "F4",
        "adaptive engine on the §5 program",
        [
            {"query": "cold", "expansions": r1.expansions, "to_first": r1.expansions_to_first},
            {"query": "warm", "expansions": r2.expansions, "to_first": r2.expansions_to_first},
        ],
    )
