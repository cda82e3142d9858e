"""Failure-injection tests: transient disk faults, starved machines,
pathological weight systems — the system must degrade in latency, never
in answers."""

import pytest

from repro.linkdb import LinkedDatabase
from repro.machine import BLogMachine, MachineConfig
from repro.ortree import OrTree
from repro.spd import Record, SearchProcessor, SemanticPagingDisk, Track
from repro.weights import WeightStore, on_failure, on_success
from repro.workloads import family_program, synthetic_tree

from .store_writes import put_infinite


class TestDiskFaults:
    def _sp(self):
        t0 = Track(records=[Record(0, 4, (), ("p", 1))])
        t1 = Track(records=[Record(1, 4, (), ("q", 1))])
        return SearchProcessor(0, [t0, t1])

    def test_fault_costs_extra_revolution(self):
        sp = self._sp()
        clean = sp.load_cylinder(0)
        sp.cached_cylinder = None  # force reload
        sp.inject_fault(0, retries=1)
        faulty = sp.load_cylinder(0)
        assert faulty == clean + sp.costs.revolution_cycles
        assert sp.stats.read_retries == 1

    def test_fault_is_transient(self):
        sp = self._sp()
        sp.inject_fault(0, retries=1)
        sp.load_cylinder(0)
        sp.cached_cylinder = None
        again = sp.load_cylinder(0)
        assert sp.stats.read_retries == 1  # second load clean
        assert again == sp.costs.load_cost(None, 0)

    def test_multiple_retries_accumulate(self):
        sp = self._sp()
        sp.inject_fault(1, retries=3)
        for _ in range(3):
            sp.load_cylinder(1)
            sp.cached_cylinder = None
        assert sp.stats.read_retries == 3

    def test_invalid_retries(self):
        sp = self._sp()
        with pytest.raises(ValueError):
            sp.inject_fault(0, retries=0)

    def test_data_never_corrupted(self):
        sp = self._sp()
        sp.inject_fault(0, retries=2)
        sp.load_cylinder(0)
        assert sp.cache.records[0].block_id == 0

    def test_machine_answers_survive_disk_faults(self, figure1):
        db = LinkedDatabase(figure1)
        disk = SemanticPagingDisk(db, n_sps=2, track_words=64)
        for sp in disk.sps:
            for cyl in range(len(sp.tracks)):
                sp.inject_fault(cyl, retries=2)
        tree = OrTree(figure1, "gf(sam, G)", max_depth=32)
        res = BLogMachine(
            MachineConfig(n_processors=2, tasks_per_processor=2), disk=disk
        ).run(tree)
        assert sorted(str(a["G"]) for a in res.answers) == ["den", "doug"]
        retries = sum(sp.stats.read_retries for sp in disk.sps)
        assert retries > 0

    def test_faults_only_add_latency(self, figure1):
        def run(faulty: bool) -> float:
            db = LinkedDatabase(figure1)
            disk = SemanticPagingDisk(db, n_sps=2, track_words=64)
            if faulty:
                for sp in disk.sps:
                    for cyl in range(len(sp.tracks)):
                        sp.inject_fault(cyl, retries=3)
            tree = OrTree(figure1, "gf(sam, G)", max_depth=32)
            cfg = MachineConfig(n_processors=1, tasks_per_processor=1)
            return BLogMachine(cfg, disk=disk).run(tree).makespan

        assert run(faulty=True) > run(faulty=False)


class TestStarvedMachine:
    def test_more_tasks_than_work(self):
        """64 tasks over a 3-expansion problem: everyone terminates."""
        p = family_program()
        tree = OrTree(p, "f(sam, Y)", max_depth=8)
        cfg = MachineConfig(n_processors=8, tasks_per_processor=8)
        res = BLogMachine(cfg).run(tree)
        assert len(res.answers) == 1

    def test_zero_solutions_terminates(self):
        p = family_program()
        tree = OrTree(p, "gf(john, G)", max_depth=8)
        res = BLogMachine(MachineConfig(n_processors=4)).run(tree)
        assert res.answers == []
        assert res.makespan > 0

    def test_expansion_budget_halts_runaway(self):
        from repro.logic import Program

        p = Program.from_source("b(X) :- b(X).\nb(X) :- b(X).\nb(leaf).")
        tree = OrTree(p, "b(W)", max_depth=64)
        cfg = MachineConfig(n_processors=2, max_expansions=50)
        res = BLogMachine(cfg).run(tree)
        assert res.expansions <= 60  # budget + in-flight slack


class TestPathologicalWeights:
    def test_contradictory_updates_never_crash(self):
        """Hammer a store with conflicting success/failure updates on
        overlapping chains; invariants (non-negative, encodings ordered)
        must hold throughout."""
        import numpy as np

        from repro.ortree import ArcKey, OrArc

        rng = np.random.default_rng(4)
        store = WeightStore(n=8, a=16)
        keys = [ArcKey("pointer", (0, 0, i)) for i in range(6)]
        for _ in range(200):
            length = int(rng.integers(1, 5))
            chain_keys = rng.choice(len(keys), size=length, replace=False)
            chain = [
                OrArc(parent=i, child=i + 1, key=keys[k], weight=0.0)
                for i, k in enumerate(chain_keys)
            ]
            if rng.random() < 0.5:
                on_success(store, chain)
            else:
                on_failure(store, chain)
            for k in keys:
                w = store.weight(k)
                assert w >= 0.0
                assert w <= store.infinity_value

    def test_engine_completes_with_poisoned_store(self, figure1):
        """Every pointer pre-marked infinite: search still finds all
        answers (infinity is a finite encoding, not a cutoff)."""
        from repro.core import BLogConfig, BLogEngine
        from repro.ortree import ArcKey

        store = WeightStore(n=8, a=16)
        for caller in range(-1, 12):
            for lit in range(3):
                for callee in range(12):
                    put_infinite(store, ArcKey("pointer", (caller, lit, callee)))
        eng = BLogEngine(figure1, BLogConfig(n=8, a=16), global_store=store)
        res = eng.query("gf(sam, G)", update_weights=False)
        assert sorted(str(a["G"]) for a in res.answers) == ["den", "doug"]
