"""E9 — Engine throughput in the paper's contemporary terms (LIPS).

The 1985 audience measured Prolog systems in logical inferences per
second on naive reverse (DEC-10 Prolog: ~30 kLIPS; the paper's [13] is
the DEC-10 manual).  We quote our baseline and the B-LOG engine on the
same yardstick, plus the per-engine cost of the explicit OR-tree
representation (one resolvent copy per node = the copy traffic §6's
multiply-write memory absorbs).
"""

from conftest import emit

from repro.core import BLogConfig, BLogEngine
from repro.ortree import OrTree, depth_first
from repro.workloads import nrev_inferences, nrev_program, nrev_query, run_nrev


def test_e9_nrev_lips(benchmark):
    res = benchmark(run_nrev, 30, 5)
    assert res.reversed_ok
    emit(
        "E9",
        "naive reverse (nrev/30): the classic LIPS benchmark",
        [
            {
                "engine": "sequential baseline (trailed bindings)",
                "inferences_per_run": nrev_inferences(30),
                "kLIPS": round(res.lips / 1000, 1),
            }
        ],
    )


def test_e9_ortree_overhead(benchmark):
    """The explicit OR-tree pays for its resolvents: expansions per
    second vs the baseline's inferences per second on the same query."""
    program = nrev_program()
    query, _ = nrev_query(20)

    def run():
        tree = OrTree(program, query, max_depth=600)
        return depth_first(tree, max_solutions=1), tree

    res, tree = benchmark(run)
    assert res.found
    emit(
        "E9",
        "explicit OR-tree on nrev/20 (the §6 copying cost, in software)",
        [
            {
                "expansions": res.expansions,
                "nodes": len(tree.nodes),
                "note": "each node copies its whole resolvent",
            }
        ],
    )


def test_e9_blog_engine_on_deterministic_code(benchmark):
    """B-LOG's frontier machinery on deterministic list code: the price
    of best-first bookkeeping where depth-first needs none."""
    program = nrev_program()
    query, _ = nrev_query(16)

    def run():
        eng = BLogEngine(program, BLogConfig(max_depth=600))
        return eng.query(query, max_solutions=1)

    r = benchmark(run)
    assert r.solved
    emit(
        "E9",
        "B-LOG engine on nrev/16",
        [
            {
                "expansions": r.expansions,
                "to_first": r.expansions_to_first,
                "answers": len(r.answers),
            }
        ],
    )


def test_e9_hanoi_deterministic_recursion(benchmark):
    """Towers of Hanoi: single-solution deep recursion — the workload
    class where §7 expects AND- (not OR-) parallelism to pay."""
    from repro.workloads import hanoi_moves, solve_hanoi

    moves = benchmark(solve_hanoi, 7)
    assert len(moves) == hanoi_moves(7)
    emit(
        "E9",
        "hanoi/7 (deterministic recursion)",
        [{"discs": 7, "moves": len(moves), "solutions": 1}],
    )


def test_e9_deriv_term_heavy(benchmark):
    """Symbolic differentiation: big-struct unification (the workload
    class where the interpreter's operand-derived unify latencies bite)."""
    from repro.logic import term_size
    from repro.workloads import differentiate, nested_expr

    def run():
        return differentiate(nested_expr(6))

    result = benchmark(run)
    emit(
        "E9",
        "deriv on a depth-6 nested expression",
        [{"result_term_size": term_size(result), "solutions": 1}],
    )
    assert term_size(result) > 50
