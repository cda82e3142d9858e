"""Integration tests for the assembled B-LOG machine simulation."""

from functools import partial

import pytest

from repro.linkdb import LinkedDatabase
from repro.machine import BLogMachine, MachineConfig
from repro.ortree import OrTree
from repro.spd import SemanticPagingDisk
from repro.weights import WeightStore, apply_outcome
from repro.workloads import synthetic_tree


def machine_run(program, query, n=2, m=2, disk=None, store=None, **cfg):
    config = MachineConfig(n_processors=n, tasks_per_processor=m, **cfg)
    weight_fn = store.weight_fn() if store is not None else None
    learn = partial(apply_outcome, store) if store is not None else None
    tree = OrTree(program, query, weight_fn=weight_fn, max_depth=64)
    return BLogMachine(config, disk=disk, learn=learn).run(tree)


class TestCorrectness:
    def test_figure1_answers(self, figure1):
        res = machine_run(figure1, "gf(sam, G)")
        assert sorted(str(a["G"]) for a in res.answers) == ["den", "doug"]

    def test_all_solutions_any_processor_count(self):
        wl = synthetic_tree(branching=3, depth=3, dead_fraction=0.34, seed=7)
        expected = wl.n_solutions
        for n in (1, 2, 5):
            res = machine_run(wl.program, wl.query, n=n)
            assert len(res.answers) == expected

    def test_max_solutions_stops_early(self):
        wl = synthetic_tree(branching=3, depth=3, seed=8)
        full = machine_run(wl.program, wl.query, n=2)
        res = machine_run(wl.program, wl.query, n=2, max_solutions=2)
        assert len(res.answers) >= 2
        assert res.expansions < full.expansions

    def test_failed_query(self, figure1):
        res = machine_run(figure1, "gf(john, G)")
        assert res.answers == []
        assert res.failures >= 1


class TestSpeedup:
    def test_bushy_tree_speeds_up(self):
        wl = synthetic_tree(branching=3, depth=4, seed=9)
        t1 = machine_run(wl.program, wl.query, n=1).makespan
        t4 = machine_run(wl.program, wl.query, n=4).makespan
        assert t4 < t1
        assert t1 / t4 > 2.0

    def test_single_processor_full_utilization(self):
        wl = synthetic_tree(branching=2, depth=4, seed=10)
        res = machine_run(wl.program, wl.query, n=1, m=1)
        assert res.per_processor_utilization[0] > 0.9

    def test_utilization_drops_with_overprovisioning(self):
        wl = synthetic_tree(branching=2, depth=3, seed=11)
        r2 = machine_run(wl.program, wl.query, n=2)
        r16 = machine_run(wl.program, wl.query, n=16)
        assert r16.mean_utilization < r2.mean_utilization

    def test_expansions_counted_per_processor(self):
        wl = synthetic_tree(branching=3, depth=3, seed=12)
        res = machine_run(wl.program, wl.query, n=3)
        assert sum(res.per_processor_expansions) == res.expansions


class TestMigration:
    def test_work_spreads_from_seed_processor(self):
        wl = synthetic_tree(branching=4, depth=4, seed=13)
        res = machine_run(wl.program, wl.query, n=4, d=2.0)
        assert res.migrations > 0
        busy = [e for e in res.per_processor_expansions if e > 0]
        assert len(busy) >= 2

    def test_huge_d_blocks_steady_state_migration(self):
        """With D enormous, only idle processors pull work; busy ones
        never rebalance — traffic stays lower than with D=0."""
        wl = synthetic_tree(branching=3, depth=4, seed=14)
        greedy = machine_run(wl.program, wl.query, n=4, d=0.0)
        frozen = machine_run(wl.program, wl.query, n=4, d=1e9)
        assert frozen.network_transfers <= greedy.network_transfers

    def test_network_words_accounted(self):
        wl = synthetic_tree(branching=3, depth=4, seed=15)
        res = machine_run(wl.program, wl.query, n=4)
        if res.migrations:
            assert res.network_words_moved > 0
            assert res.network_transfers == res.migrations


class TestDiskIntegration:
    def test_disk_adds_latency(self, figure1):
        db = LinkedDatabase(figure1)
        nodisk = machine_run(figure1, "gf(sam, G)", n=1)
        disk = SemanticPagingDisk(db, n_sps=2, track_words=64)
        withdisk = machine_run(figure1, "gf(sam, G)", n=1, disk=disk)
        assert withdisk.makespan > nodisk.makespan
        assert withdisk.disk_cycles > 0

    def test_local_memory_caches_pages(self, figure1):
        db = LinkedDatabase(figure1)
        disk = SemanticPagingDisk(db, n_sps=2, track_words=64)
        res = machine_run(figure1, "gf(sam, G)", n=1, disk=disk)
        assert res.local_memory_hit_rate > 0.0

    def test_answers_unchanged_by_disk(self, figure1):
        db = LinkedDatabase(figure1)
        disk = SemanticPagingDisk(db, n_sps=2, track_words=64)
        res = machine_run(figure1, "gf(sam, G)", n=2, disk=disk)
        assert sorted(str(a["G"]) for a in res.answers) == ["den", "doug"]


class TestWeightIntegration:
    def test_machine_learns_weights(self, figure1):
        store = WeightStore(n=8, a=8)
        res = machine_run(figure1, "gf(sam, G)", n=2, store=store)
        assert len(res.answers) == 2
        assert len(store) > 0  # updates applied

    def test_warm_store_shrinks_first_solution_work(self, figure1):
        store = WeightStore(n=8, a=8)
        machine_run(figure1, "gf(sam, G)", n=1, store=store)
        cold_store = WeightStore(n=8, a=8)
        cold = machine_run(
            figure1, "gf(sam, G)", n=1, store=cold_store, max_solutions=1
        )
        warm = machine_run(
            figure1, "gf(sam, G)", n=1, store=store, max_solutions=1
        )
        assert warm.expansions <= cold.expansions


class TestScoreboardCosting:
    def test_scoreboard_mode_runs(self, figure1):
        res = machine_run(figure1, "gf(sam, G)", n=2, cost_model="scoreboard")
        assert sorted(str(a["G"]) for a in res.answers) == ["den", "doug"]
        assert res.makespan > 0


class TestConfigValidation:
    def test_bad_config(self):
        with pytest.raises(ValueError):
            MachineConfig(n_processors=0)
        with pytest.raises(ValueError):
            MachineConfig(d=-1)

    def test_expansion_budget_stops_machine(self):
        wl = synthetic_tree(branching=3, depth=5, seed=16)
        res = machine_run(wl.program, wl.query, n=2, max_expansions=20)
        assert res.expansions <= 22  # small overshoot from in-flight tasks


class TestDiskContention:
    def test_contention_increases_makespan(self):
        """One SP serving many tasks queues page-ins; turning the model
        off collapses the queueing delay."""
        wl = synthetic_tree(branching=3, depth=4, seed=99)

        def run(contention: bool) -> float:
            db = LinkedDatabase(wl.program)
            disk = SemanticPagingDisk(db, n_sps=1, track_words=64)
            tree = OrTree(wl.program, wl.query, max_depth=32)
            cfg = MachineConfig(
                n_processors=4,
                tasks_per_processor=2,
                memory_blocks=8,
                model_disk_contention=contention,
            )
            return BLogMachine(cfg, disk=disk).run(tree).makespan

        assert run(True) > run(False)

    def test_wider_spd_bank_relieves_contention(self):
        wl = synthetic_tree(branching=3, depth=4, seed=98)

        def run(n_sps: int) -> float:
            db = LinkedDatabase(wl.program)
            disk = SemanticPagingDisk(db, n_sps=n_sps, track_words=64)
            tree = OrTree(wl.program, wl.query, max_depth=32)
            cfg = MachineConfig(
                n_processors=4, tasks_per_processor=2, memory_blocks=8
            )
            return BLogMachine(cfg, disk=disk).run(tree).makespan

        assert run(4) <= run(1)

    def test_answers_unaffected_by_contention(self, figure1):
        db = LinkedDatabase(figure1)
        disk = SemanticPagingDisk(db, n_sps=1, track_words=64)
        tree = OrTree(figure1, "gf(sam, G)", max_depth=32)
        cfg = MachineConfig(n_processors=3, model_disk_contention=True)
        res = BLogMachine(cfg, disk=disk).run(tree)
        assert sorted(str(a["G"]) for a in res.answers) == ["den", "doug"]


class TestAdaptiveD:
    def test_disabled_by_default(self):
        wl = synthetic_tree(branching=3, depth=4, seed=97)
        res = machine_run(wl.program, wl.query, n=4, d=2.0)
        assert res.d_trajectory == []
        assert res.final_d == 2.0

    def test_controller_records_trajectory(self):
        wl = synthetic_tree(branching=3, depth=5, seed=97)
        res = machine_run(
            wl.program, wl.query, n=4, d=2.0, adaptive_d=True, adapt_window=8
        )
        assert res.d_trajectory  # at least one update fired
        assert res.final_d == res.d_trajectory[-1]

    def test_answers_unchanged_by_adaptation(self):
        wl = synthetic_tree(branching=3, depth=4, dead_fraction=0.34, seed=96)
        fixed = machine_run(wl.program, wl.query, n=4, d=2.0)
        adaptive = machine_run(
            wl.program, wl.query, n=4, d=2.0, adaptive_d=True, adapt_window=8
        )
        assert len(fixed.answers) == len(adaptive.answers)

    def test_idle_heavy_run_lowers_d(self):
        """Start with a huge D on a machine with cheap comms and many
        idle waits: the controller walks D down."""
        wl = synthetic_tree(branching=3, depth=5, seed=95)
        res = machine_run(
            wl.program, wl.query, n=8, d=1e6,
            adaptive_d=True, adapt_window=4,
        )
        assert res.final_d < 1e6


class TestCostModels:
    @pytest.mark.parametrize("model", ["simple", "scoreboard", "interpreter"])
    def test_all_cost_models_same_answers(self, figure1, model):
        res = machine_run(figure1, "gf(sam, G)", n=2, cost_model=model)
        assert sorted(str(a["G"]) for a in res.answers) == ["den", "doug"]
        assert res.makespan > 0

    def test_invalid_cost_model(self):
        with pytest.raises(ValueError):
            MachineConfig(cost_model="vibes")

    def test_interpreter_costs_differ_from_simple(self, figure1):
        simple = machine_run(figure1, "gf(sam, G)", n=1, m=1, cost_model="simple")
        interp = machine_run(
            figure1, "gf(sam, G)", n=1, m=1, cost_model="interpreter"
        )
        assert simple.makespan != interp.makespan


class TestEventTrace:
    def test_off_by_default(self, figure1):
        res = machine_run(figure1, "gf(sam, G)")
        assert res.events == []

    def test_events_recorded_and_ordered(self):
        wl = synthetic_tree(branching=3, depth=3, seed=94)
        res = machine_run(wl.program, wl.query, n=2, record_events=True)
        assert res.events
        times = [e[0] for e in res.events]
        assert times == sorted(times)
        kinds = {e[3] for e in res.events}
        assert "pop" in kinds and "expand" in kinds and "solution" in kinds

    def test_expand_events_match_count(self):
        wl = synthetic_tree(branching=3, depth=3, seed=93)
        res = machine_run(wl.program, wl.query, n=2, record_events=True)
        expands = [e for e in res.events if e[3] == "expand"]
        assert len(expands) == res.expansions

    def test_solution_events_match_answers(self, figure1):
        res = machine_run(figure1, "gf(sam, G)", record_events=True)
        sols = [e for e in res.events if e[3] == "solution"]
        assert len(sols) == len(res.answers)
