"""The serving and engine paths do not load networkx.

networkx costs about 18 MB of resident memory at import, and only the
graph views (``LinkedDatabase.as_graph``, ``fact_graph``,
``to_networkx``) and the graph workloads' oracles use it, so those
import it when called.  A fresh interpreter proves it stays out.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def _loads_networkx(code: str) -> bool:
    path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint('networkx' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    return out.stdout.strip().splitlines()[-1] == "True"


@pytest.mark.parametrize("module", ["repro.service", "repro.core", "repro.workloads"])
def test_import_leaves_networkx_out(module):
    assert not _loads_networkx(f"import {module}")


def test_graph_workload_still_builds_its_graph():
    code = "from repro.workloads import grid_program\nassert grid_program(2, 2).graph.size() == 4"
    assert _loads_networkx(code)
