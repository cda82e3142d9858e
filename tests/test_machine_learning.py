"""The §6 machine learns through the engine's §5 hook.

A leaf cut off at ``max_depth`` is neither a failure nor learned from,
on every path that runs the machine: a bare :class:`BLogMachine`, the
library's :meth:`BLogSystem.query_parallel` and the service's
``machine`` engine.  And a 1-processor × 1-task machine, which expands
chains in the engine's best-first order, learns the store the engine
learns under every update policy.
"""

from __future__ import annotations

import asyncio
from functools import partial

import pytest

from repro.core import BLogConfig, BLogEngine, BLogSystem
from repro.logic import Program
from repro.machine import BLogMachine, MachineConfig
from repro.ortree import OrTree
from repro.service import BLogService, QueryRequest
from repro.weights import POLICY_COMBINATIONS, WeightState, WeightStore, apply_outcome
from repro.workloads import family_program, nqueens_program, nqueens_query

#: q(X) has one answer, b; the r/1 chain recurses until max_depth cuts it
CUTOFF_PROGRAM = """
q(X) :- r(X).
q(b).
r(X) :- r(X).
"""
CUTOFF_CONFIG = BLogConfig(max_depth=6)


def infinite_keys(store: WeightStore) -> list:
    return [k for k, e in store.snapshot().items() if e.state is WeightState.INFINITE]


class TestDepthCutoffIsNotAFailure:
    def test_the_engine_reads_one_cutoff(self):
        engine = BLogEngine(Program.from_source(CUTOFF_PROGRAM), CUTOFF_CONFIG)
        res = engine.query("q(X)")
        assert (res.depth_cutoffs, res.failures, res.complete) == (1, 0, False)
        assert not infinite_keys(engine.store)

    def test_bare_machine(self):
        store = WeightStore()
        tree = OrTree(
            Program.from_source(CUTOFF_PROGRAM), "q(X)",
            weight_fn=store.weight_fn(), max_depth=CUTOFF_CONFIG.max_depth,
        )
        res = BLogMachine(MachineConfig(), learn=partial(apply_outcome, store)).run(tree)
        assert [str(a["X"]) for a in res.answers] == ["b"]
        assert (res.depth_cutoffs, res.failures, res.complete) == (1, 0, False)
        assert [log.kind for log in res.update_logs] == ["success"]
        assert not infinite_keys(store) and len(store) > 0

    def test_query_parallel(self):
        system = BLogSystem(CUTOFF_PROGRAM, CUTOFF_CONFIG)
        res = system.query_parallel("q(X)")
        assert [str(a["X"]) for a in res.answers] == ["b"]
        assert (res.depth_cutoffs, res.failures, res.complete) == (1, 0, False)
        assert not infinite_keys(system.store)

    def test_a_full_search_is_complete(self):
        system = BLogSystem(CUTOFF_PROGRAM.replace("r(X) :- r(X).", "r(a)."), CUTOFF_CONFIG)
        res = system.query_parallel("q(X)")
        assert sorted(str(a["X"]) for a in res.answers) == ["a", "b"]
        assert (res.depth_cutoffs, res.complete) == (0, True)

    def test_an_expansion_limit_with_open_chains_is_incomplete(self):
        system = BLogSystem(
            family_program(),
            machine=MachineConfig(n_processors=1, tasks_per_processor=1, max_expansions=2),
        )
        res = system.query_parallel("gf(sam, G)")
        assert res.expansions == 2 and not res.complete

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_service_machine_session_merge(self, backend):
        async def body():
            svc = BLogService(
                {"cut": CUTOFF_PROGRAM}, config=CUTOFF_CONFIG, n_workers=1, backend=backend
            )
            await svc.start()
            try:
                reply = await svc.submit(
                    QueryRequest("cut", "q(X)", session="s", engine="machine", cache=False)
                )
                await svc.end_session("cut", "s")
                return reply, svc.programs["cut"].global_store.snapshot()
            finally:
                await svc.stop()

        reply, merged = asyncio.run(body())
        assert reply.ok and [a["X"] for a in reply.answers] == ["b"]
        assert reply.complete is False
        assert merged and not [e for e in merged.values() if e.state is WeightState.INFINITE]


FAMILY = (family_program(), "gf(sam, G)")
QUEENS4 = (nqueens_program(4), nqueens_query())


@pytest.mark.parametrize("blame, distribute", POLICY_COMBINATIONS)
@pytest.mark.parametrize("workload", [FAMILY, QUEENS4], ids=["family", "queens4"])
def test_one_by_one_machine_learns_what_the_engine_learns(workload, blame, distribute):
    program, query = workload
    config = BLogConfig(failure_blame=blame, success_distribute=distribute)
    engine = BLogEngine(program, config)
    machine_engine = BLogEngine(program, config)
    one_by_one = MachineConfig(n_processors=1, tasks_per_processor=1)
    for _ in range(2):  # the second run orders its search by learned weights
        seq = engine.query(query)
        par = machine_engine.run_machine(query, one_by_one)
        assert [{k: str(v) for k, v in a.items()} for a in par.answers] == [
            {k: str(v) for k, v in a.items()} for a in seq.answers
        ]
        assert par.update_logs == seq.update_logs
        assert par.expansions == seq.expansions and par.failures == seq.failures
        assert machine_engine.store.snapshot() == engine.store.snapshot()
