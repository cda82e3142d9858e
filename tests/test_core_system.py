"""Tests for the assembled BLogSystem."""

import pytest

from repro.core import BLogConfig, BLogSystem
from repro.machine import MachineConfig
from repro.workloads import FIGURE1_SOURCE


@pytest.fixture
def system():
    return BLogSystem(FIGURE1_SOURCE, BLogConfig(n=8, a=16))


class TestConstruction:
    def test_from_source_text(self, system):
        assert len(system.program) == 12

    def test_from_program(self, figure1):
        sys2 = BLogSystem(figure1)
        assert sys2.program is figure1

    def test_repr(self, system):
        text = repr(system)
        assert "12 clauses" in text
        assert "SPDs" in text


class TestQuerying:
    def test_sequential_query(self, system):
        res = system.query("gf(sam, G)")
        assert sorted(str(a["G"]) for a in res.answers) == ["den", "doug"]

    def test_parallel_query(self, system):
        res = system.query_parallel("gf(sam, G)")
        assert sorted(str(a["G"]) for a in res.answers) == ["den", "doug"]
        assert res.makespan > 0
        assert res.disk_cycles > 0  # the system's SPD bank served pages

    def test_parallel_max_solutions(self, system):
        res = system.query_parallel("gf(sam, G)", max_solutions=1)
        assert len(res.answers) >= 1

    def test_parallel_query_honours_the_selection_rule(self):
        """The machine searches the tree the sequential engine builds, so
        one processor expands what the engine does under either rule."""
        for rule in ("leftmost", "fewest-candidates"):
            config = BLogConfig(n=8, a=16, selection_rule=rule)
            machine = MachineConfig(n_processors=1)
            par = BLogSystem(FIGURE1_SOURCE, config, machine=machine).query_parallel("gf(X, Y)")
            seq = BLogSystem(FIGURE1_SOURCE, config, machine=machine).query("gf(X, Y)")
            assert par.expansions == seq.expansions, rule

    def test_both_executors_share_learning(self, system):
        system.begin_session()
        system.query("gf(sam, G)")  # sequential learns
        warm = system.query_parallel("gf(sam, G)", max_solutions=1)
        system.end_session(write_back=False)
        # learned store orders the machine's frontier too: den/doug first
        assert warm.answers


class TestSessions:
    def test_session_with_writeback(self, system):
        system.begin_session()
        system.query("gf(sam, G)")
        merge, report = system.end_session()
        assert merge.adopted > 0
        assert report is not None
        assert report.dirty_pointers > 0
        assert system.writeback_reports == [report]
        # database view agrees with the global store
        for block in system.database:
            for p in block.pointers:
                assert p.weight == system.engine.sessions.global_store.weight(
                    p.arc_key(block.block_id)
                )

    def test_session_without_writeback(self, system):
        system.begin_session()
        system.query("gf(sam, G)")
        merge, report = system.end_session(write_back=False)
        assert report is None


class TestPersistence:
    def test_save_and_reload(self, tmp_path):
        path = tmp_path / "weights.json"
        sys1 = BLogSystem(FIGURE1_SOURCE, BLogConfig(n=8, a=16), store_path=path)
        sys1.begin_session()
        cold = sys1.query("gf(sam, G)", max_solutions=1).expansions_to_first
        sys1.end_session(write_back=False)
        sys1.save()
        # a fresh system over the same path starts warm
        sys2 = BLogSystem(FIGURE1_SOURCE, BLogConfig(n=8, a=16), store_path=path)
        warm = sys2.query("gf(sam, G)", max_solutions=1).expansions_to_first
        assert warm < cold

    def test_save_needs_path(self, system):
        with pytest.raises(ValueError):
            system.save()

    def test_save_explicit_path(self, system, tmp_path):
        target = system.save(tmp_path / "w.json")
        assert target.exists()


class TestConsult:
    def test_added_clauses_queryable(self, system):
        system.consult("f(doug, zed).")
        res = system.query("gf(larry, G)")
        assert "zed" in {str(a["G"]) for a in res.answers}

    def test_disk_rebuilt(self, system):
        before = len(system.disk.addresses)
        system.consult("f(x1, y1). f(y1, z1).")
        assert len(system.disk.addresses) == before + 2


class TestMachineConfigPassthrough:
    def test_custom_machine(self):
        system = BLogSystem(
            FIGURE1_SOURCE,
            machine=MachineConfig(n_processors=2, tasks_per_processor=1),
        )
        res = system.query_parallel("gf(sam, G)")
        assert len(res.per_processor_expansions) == 2
