"""The self-check: the repo must lint clean under its own linter.

Once the tree is clean it can never silently regress: a new
store-mutation site, blocking call in a coroutine, unpicklable lane
payload, swallowed exception, or unsynced weight-store write fails this
test (and the CI `lint` job) immediately.  Leaked spans and uncataloged
metrics need no lint: the telemetry API cannot express them.
"""

from __future__ import annotations

import io
from pathlib import Path

from repro.analysis import analyze_paths
from repro.cli import main

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
TESTS = REPO / "tests"


def test_repo_lints_clean():
    result = analyze_paths([SRC, TESTS])
    assert result.files > 100  # sanity: the walk actually saw the tree
    details = "\n".join(
        f"{f.path}:{f.line}: {f.rule} {f.message}" for f in result.findings
    )
    assert result.ok, f"blogcheck found regressions:\n{details}"


def test_suppressions_are_counted_not_lost():
    # the tree carries exactly five justified suppressions (shutdown-path
    # pipe errors etc.); the runner must surface them, not drop them
    result = analyze_paths([SRC])
    assert [f.rule for f in result.suppressed] == ["BLG005"] * 5


def test_cli_gate_passes_on_the_repo():
    out = io.StringIO()
    assert main(["lint", str(SRC), str(TESTS)], out=out) == 0
    assert "clean" in out.getvalue()


def test_default_path_is_the_package():
    # `python -m repro.cli lint` with no paths lints the installed package
    out = io.StringIO()
    assert main(["lint"], out=out) == 0
