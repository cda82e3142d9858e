"""Cross-module integration tests: every execution mechanism agrees
with the Prolog baseline on a corpus of programs, and the learned
weights converge toward the §4 theory."""

from functools import partial

import pytest

from repro.core import BLogConfig, BLogEngine, or_parallel_solve
from repro.linkdb import LinkedDatabase
from repro.logic import Program, Solver
from repro.machine import BLogMachine, MachineConfig
from repro.ortree import OrTree, run_strategy
from repro.spd import SemanticPagingDisk
from repro.weights import WeightStore, apply_outcome, solve_weights, store_from_theory
from repro.workloads import (
    family_program,
    grid_program,
    map_coloring_program,
    random_digraph_program,
    scaled_family,
    synthetic_tree,
)

CORPUS = []


def _corpus():
    if CORPUS:
        return CORPUS
    fam = scaled_family(4, 2, 2, seed=11)
    CORPUS.extend(
        [
            (family_program(), "gf(sam, G)", "G"),
            (family_program(), "gf(curt, G)", "G"),
            (fam.program, f"anc({fam.roots[0]}, D)", "D"),
            (synthetic_tree(3, 3, 0.34, seed=12).program, "l0(W)", "W"),
            (random_digraph_program(10, 0.25, seed=13).program, "path(n0, Y)", "Y"),
            (grid_program(3, 3).program, "path(c0_0, Y)", "Y"),
        ]
    )
    return CORPUS


def baseline_set(program, query, var):
    return sorted(
        str(s[var]) for s in Solver(program, max_depth=64).solve_all(query)
    )


class TestAllMechanismsAgree:
    @pytest.mark.parametrize("ix", range(6))
    def test_engine_matches_prolog(self, ix):
        program, query, var = _corpus()[ix]
        expected = baseline_set(program, query, var)
        eng = BLogEngine(program, BLogConfig(max_depth=64))
        got = sorted(str(a[var]) for a in eng.query(query).answers)
        assert got == expected

    @pytest.mark.parametrize("ix", range(6))
    def test_strategies_match_prolog(self, ix):
        program, query, var = _corpus()[ix]
        expected = baseline_set(program, query, var)
        for name in ("depth-first", "breadth-first", "best-first"):
            tree = OrTree(program, query, max_depth=64)
            res = run_strategy(name, tree)
            got = sorted(
                str(tree.solution_answer(s)[var]) for s in res.solutions
            )
            assert got == expected, name

    @pytest.mark.parametrize("ix", [0, 2, 3])
    def test_machine_matches_prolog(self, ix):
        program, query, var = _corpus()[ix]
        expected = baseline_set(program, query, var)
        tree = OrTree(program, query, max_depth=64)
        res = BLogMachine(MachineConfig(n_processors=3)).run(tree)
        got = sorted(str(a[var]) for a in res.answers)
        assert got == expected

    @pytest.mark.parametrize("ix", [0, 3])
    def test_or_parallel_matches_prolog(self, ix):
        program, query, var = _corpus()[ix]
        expected = baseline_set(program, query, var)
        par = or_parallel_solve(program, query, processes=2, max_depth=64)
        got = sorted(a[var] for a in par.answers)
        assert got == expected


class TestFullStack:
    """Engine + linked db + SPD + machine, end to end."""

    def test_machine_with_disk_and_learning(self):
        fam = scaled_family(4, 2, 2, seed=14)
        query = f"anc({fam.roots[0]}, D)"
        expected = baseline_set(fam.program, query, "D")
        store = WeightStore(n=16, a=16)
        db = LinkedDatabase(fam.program, store)
        disk = SemanticPagingDisk(db, n_sps=2, track_words=256)
        cfg = MachineConfig(n_processors=4, tasks_per_processor=2)
        tree = OrTree(fam.program, query, weight_fn=store.weight_fn(), max_depth=64)
        res = BLogMachine(cfg, disk=disk, learn=partial(apply_outcome, store)).run(tree)
        assert sorted(str(a["D"]) for a in res.answers) == expected
        assert res.disk_cycles > 0
        assert len(store) > 0

    def test_second_machine_run_benefits_from_weights(self):
        wl = synthetic_tree(branching=4, depth=4, dead_fraction=0.5, seed=15)
        store = WeightStore(n=16, a=16)
        cfg = MachineConfig(n_processors=2, max_solutions=1)

        def run():
            tree = OrTree(
                wl.program, wl.query, weight_fn=store.weight_fn(), max_depth=32
            )
            return BLogMachine(cfg, learn=partial(apply_outcome, store)).run(tree)

        cold = run()
        # learn the full tree once
        full_cfg = MachineConfig(n_processors=2)
        tree = OrTree(
            wl.program, wl.query, weight_fn=store.weight_fn(), max_depth=32
        )
        BLogMachine(full_cfg, learn=partial(apply_outcome, store)).run(tree)
        warm = run()
        assert warm.expansions <= cold.expansions


class TestHeuristicVsTheory:
    def test_session_weights_prove_same_bound_structure(self, figure1):
        """After a converged session, the heuristic weights satisfy the
        same qualitative structure as the theoretical solution: solution
        chains sum to N, the failing branch is priced at infinity."""
        eng = BLogEngine(figure1, BLogConfig(n=8, a=16))
        eng.begin_session()
        for _ in range(3):
            eng.query("gf(sam, G)")
        store = eng.store
        tree = OrTree(figure1, "gf(sam, G)", arc_key_policy="pointer")
        tree.expand_all()
        for sol in tree.solutions():
            keys = {
                a.key for a in tree.chain_arcs(sol.nid) if a.key.kind != "builtin"
            }
            total = sum(store.weight(k) for k in keys)
            assert total == pytest.approx(8.0)
        (fail,) = tree.failures()
        fail_keys = [a.key for a in tree.chain_arcs(fail.nid)]
        assert any(store.is_infinite(k) for k in fail_keys)

    def test_theory_store_drives_engine_like_learned_store(self, figure1):
        tree = OrTree(figure1, "gf(sam, G)", arc_key_policy="pointer")
        tree.expand_all()
        theory_store = store_from_theory(solve_weights(tree, target=8.0), n=8.0)
        eng = BLogEngine(
            figure1, BLogConfig(n=8, arc_key_policy="pointer"),
            global_store=theory_store,
        )
        res = eng.query("gf(sam, G)", max_solutions=2, update_weights=False)
        assert res.failures == 0


class TestMapColoringAcrossMechanisms:
    def test_engine_and_solver_agree(self):
        mi = map_coloring_program(colors=["red", "green", "blue"])
        expected = len(
            Solver(mi.program, max_depth=64).solve_all(mi.query)
        )
        eng = BLogEngine(mi.program, BLogConfig(max_depth=64))
        assert len(eng.query(mi.query).answers) == expected
