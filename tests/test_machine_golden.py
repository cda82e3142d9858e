"""Machine golden: every :class:`MachineResult` field is pinned.

The §6 machine's makespans, migration counts, utilisation and event
traces are computed counts, so a change to how the machine is written
must leave them byte-identical.  Each case below runs a query twice on
a fresh :class:`BLogEngine` through :meth:`~BLogEngine.run_machine` (the
machine learns through the engine's hook, and the second run searches
under the weights the first one learned), with ``record_events`` on,
over the grid

* cost model: ``simple``, ``scoreboard``, ``interpreter``;
* disk: none, or an SPD bank with ``model_disk_contention`` on or off;
* ``adaptive_d`` off or on;

plus an adaptive D that starts high enough to change the search, a
depth cutoff, an expansion limit and a solution limit.  Every
field of both runs' results, ``events`` included, is compared against
``golden/machine_golden.json``.  To re-record it deliberately (only when
a change is *meant* to alter machine behaviour)::

    PYTHONPATH=src python tests/test_machine_golden.py --record
"""

from __future__ import annotations

import itertools
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

import pytest

from repro.core import BLogConfig, BLogEngine
from repro.linkdb import LinkedDatabase
from repro.logic import Program
from repro.machine import MachineConfig, MachineResult
from repro.spd import SemanticPagingDisk
from repro.workloads import family_program, synthetic_tree

GOLDEN = Path(__file__).parent / "golden" / "machine_golden.json"

COST_MODELS = ("simple", "scoreboard", "interpreter")
DISKS = ("none", "bank", "bank-free")  # bank-free: contention not modeled
ADAPTIVE = (False, True)

_SYNTHETIC = synthetic_tree(branching=3, depth=3, dead_fraction=0.34, seed=7)
_CUTOFF = "q(X) :- r(X).\nq(b).\nr(X) :- r(X).\n"


def _workload(name: str):
    """(program, query, engine config, machine config) of a workload."""
    if name == "synthetic":
        knobs = dict(n_processors=3, tasks_per_processor=2, d=1.0)
        return _SYNTHETIC.program, _SYNTHETIC.query, BLogConfig(), knobs
    if name == "family":
        knobs = dict(n_processors=2, tasks_per_processor=2, d=0.5)
        return family_program(), "gf(X, G)", BLogConfig(), knobs
    if name == "cutoff":
        knobs = dict(n_processors=2, tasks_per_processor=1)
        return Program.from_source(_CUTOFF), "q(X)", BLogConfig(max_depth=6), knobs
    raise KeyError(name)


def _cases() -> list[tuple[str, str, dict, str]]:
    """(case id, workload, machine knobs, disk) for every case."""
    cases = []
    for workload in ("synthetic", "family"):
        for model, disk, adaptive in itertools.product(COST_MODELS, DISKS, ADAPTIVE):
            knobs = dict(cost_model=model, adaptive_d=adaptive, adapt_window=4)
            cid = f"{workload}-{model}-{disk}-{'adaptive' if adaptive else 'fixed'}"
            cases.append((cid, workload, knobs, disk))
    # D walks down from a value that blocks rebalancing until it doesn't
    walk = dict(d=64.0, adaptive_d=True, adapt_window=4)
    cases.append(("adaptive-walk", "synthetic", walk, "none"))
    cases.append(("cutoff", "cutoff", {}, "none"))
    cases.append(("limit", "synthetic", dict(max_expansions=15), "bank"))
    cases.append(("first", "family", dict(max_solutions=1), "bank"))
    return cases


CASES = _cases()


def _result_fields(res: MachineResult) -> dict:
    out = {}
    for f in fields(MachineResult):
        value = getattr(res, f.name)
        if f.name == "answers":
            value = [{k: str(v) for k, v in sorted(a.items())} for a in value]
        elif f.name == "update_logs":
            value = [asdict(log) for log in value]
        out[f.name] = value
    # through JSON, so tuples and lists compare as recorded
    return json.loads(json.dumps(out))


def run_case(workload: str, knobs: dict, disk: str) -> list[dict]:
    program, query, engine_config, base = _workload(workload)
    config = MachineConfig(
        memory_blocks=8,
        record_events=True,
        model_disk_contention=disk == "bank",
        **{**base, **knobs},
    )
    engine = BLogEngine(program, engine_config)
    runs = []
    for _ in range(2):
        spd = (
            SemanticPagingDisk(LinkedDatabase(program), n_sps=1, track_words=64)
            if disk != "none"
            else None
        )
        runs.append(_result_fields(engine.run_machine(query, config, disk=spd)))
    return runs


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize(
    "cid,workload,knobs,disk", CASES, ids=[case[0] for case in CASES]
)
def test_machine_matches_golden(golden, cid, workload, knobs, disk):
    runs = run_case(workload, knobs, disk)
    for run, expected in zip(runs, golden[cid], strict=True):
        for name, value in expected.items():
            assert run[name] == value, f"{cid}: {name}"
        assert set(run) == set(expected)


def test_golden_cases_reach_every_mechanism(golden):
    """The grid is only a pin if it exercises what it pins."""
    runs = [run for cid, _, _, _ in CASES for run in golden[cid]]
    assert any(run["idle_pulls"] for run in runs)
    assert any(run["rebalances"] for run in runs)
    assert any(run["disk_cycles"] for run in runs)
    assert any(run["d_trajectory"] for run in runs)
    assert any(run["update_logs"] for run in runs)
    assert any(run["depth_cutoffs"] for run in runs)
    assert any(not run["complete"] for run in runs)
    assert all(run["events"] for run in runs)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_machine_golden.py --record")
    recorded = {cid: run_case(w, knobs, disk) for cid, w, knobs, disk in CASES}
    # one case per line: a diff names the case that moved
    lines = [f"{json.dumps(cid)}: {json.dumps(runs, sort_keys=True)}" for cid, runs in recorded.items()]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
