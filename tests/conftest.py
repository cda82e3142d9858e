"""Shared fixtures: the figure-1 program and common workloads."""

import pytest

from repro.core.procpool import LaneWorker, Query
from repro.logic import Program
from repro.workloads import FIGURE1_SOURCE, family_program


@pytest.fixture
def figure1() -> Program:
    """The exact program of the paper's figure 1."""
    return family_program()


@pytest.fixture
def append_program() -> Program:
    return Program.from_source(
        """
        app([], L, L).
        app([H|T], L, [H|R]) :- app(T, L, R).
        """
    )


@pytest.fixture
def section5_program() -> Program:
    """The clause set of section 5's worked example (figure 4)."""
    return Program.from_source(
        """
        a :- b, c, d.
        b :- e.
        b :- f.
        c :- g.
        d :- h.
        e. f. g. h.
        """
    )


@pytest.fixture
def on_lane_query(monkeypatch):
    """``on_lane_query(wrap)`` routes every lane worker's :class:`Query`
    through ``wrap(real, worker, msg)`` — the fault-injection seam for
    in-process (thread) lanes.  It patches the class, so the fresh
    worker a lane reset swaps in is patched too; ``monkeypatch.undo()``
    lifts it."""

    def install(wrap) -> None:
        real = LaneWorker.handle

        def handle(worker, msg):
            if isinstance(msg, Query):
                return wrap(real, worker, msg)
            return real(worker, msg)

        monkeypatch.setattr(LaneWorker, "handle", handle)

    return install
