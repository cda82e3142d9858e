"""Differential test: the engine's observable work is pinned.

Sharing ground structure instead of copying it must change nothing the
engine computes.  Every case below runs one query twice on a fresh
:class:`BLogEngine` (the second run sees the weights the first one
learned, so answer *order* under learned bounds is pinned too) and is
compared, field by field, against ``golden/engine_differential.json``:

* answers, in discovery order, and ``solution_bounds``;
* expansions, generated nodes and ``words_copied`` (the §6 copy
  traffic, which still counts each resolvent's full logical size);
* every entry of the weight store after both runs (by count and digest).

The golden file was recorded from the engine as it was before ground
terms were shared.  To re-record it deliberately (only when a change is
*meant* to alter engine behaviour)::

    PYTHONPATH=src python tests/test_engine_differential.py --record
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.core import BLogConfig, BLogEngine
from repro.logic.terms import Atom, Int, Struct, Var, make_list, reset_var_counter
from repro.logic.unify import Bindings
from repro.workloads import (
    deriv_program,
    hanoi_program,
    hanoi_query,
    nqueens_program,
    nqueens_query,
    nrev_program,
    nrev_query,
    scaled_family,
)
from repro.workloads.deriv import nested_expr

GOLDEN = Path(__file__).parent / "golden" / "engine_differential.json"
POLICIES = ("pointer", "goal")


def _family():
    return scaled_family(generations=4, seed=3).program


#: name -> (program factory, query, max_solutions)
CORPUS = {
    "queens4": (lambda: nqueens_program(4), nqueens_query(), None),
    "queens5": (lambda: nqueens_program(5), nqueens_query(), None),
    "nrev30": (nrev_program, nrev_query(30)[0], 1),
    "family_gf": (_family, "gf(g0p3, G)", None),
    "family_gm": (_family, "gm(M, G)", None),
    "hanoi3": (hanoi_program, hanoi_query(3), None),
    "deriv3": (deriv_program, f"d({nested_expr(3)}, D)", None),
}


def run_case(name: str, policy: str) -> dict:
    """Run one corpus case; return its JSON-ready observable record."""
    factory, query, max_solutions = CORPUS[name]
    reset_var_counter()
    # nrev/30 chains are 496 resolutions deep; no case hits the limit
    config = BLogConfig(arc_key_policy=policy, max_depth=1024)
    engine = BLogEngine(factory(), config)
    runs = []
    for _ in range(2):
        r = engine.query(query, max_solutions=max_solutions, keep_tree=True)
        runs.append(
            {
                "answers": [
                    {var: str(val) for var, val in sorted(a.items())}
                    for a in r.answers
                ],
                "solution_bounds": r.solution_bounds,
                "expansions": r.expansions,
                "generated": r.generated,
                "words_copied": r.tree.words_copied,
            }
        )
    entries = sorted(
        f"{key} {entry.state.value} {entry.value!r}"
        for key, entry in engine.store.snapshot().items()
    )
    # goal-policy keys spell out whole goals: pin the store by digest
    digest = hashlib.sha256("\n".join(entries).encode()).hexdigest()
    return {"runs": runs, "store_entries": len(entries), "store_sha256": digest}


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_engine_matches_golden(name, policy):
    want = _golden()[f"{name}/{policy}"]
    got = json.loads(json.dumps(run_case(name, policy)))
    for i, (g, w) in enumerate(zip(got["runs"], want["runs"])):
        for field in ("answers", "solution_bounds", "expansions", "generated", "words_copied"):
            assert g[field] == w[field], f"run {i}: {field} differs"
    assert got["store_entries"] == want["store_entries"]
    assert got["store_sha256"] == want["store_sha256"]


def test_resolve_returns_ground_terms_unchanged():
    b = Bindings()
    ground = Struct("f", (Atom("a"), make_list([Int(1), Int(2)])))
    assert b.resolve(ground) is ground
    b.bind(Var("X"), Atom("b"))
    assert b.resolve(ground) is ground


def test_resolve_returns_terms_with_only_unbound_variables_unchanged():
    x, y = Var("X"), Var("Y")
    term = Struct("g", (x, Struct("h", (y, Atom("c")))))
    b = Bindings()
    b.bind(Var("Z"), Atom("z"))
    assert b.resolve(term) is term
    # binding one argument rebuilds the path to it and shares the rest
    b.bind(x, Atom("a"))
    out = b.resolve(term)
    assert out == Struct("g", (Atom("a"), Struct("h", (y, Atom("c")))))
    assert out.args[1] is term.args[1]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_engine_differential.py --record")
    GOLDEN.parent.mkdir(exist_ok=True)
    golden = {
        f"{name}/{policy}": run_case(name, policy)
        for name in sorted(CORPUS)
        for policy in POLICIES
    }
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
