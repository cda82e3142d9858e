"""Scoreboard-driven processor controller (§6).

"Recall that in the CDC 6600, a scoreboard is used to keep busy a
collection of adders, multipliers and the like [...] We should build
some specialized units, for example, to instantiate variables.  When a
unit has completed its operation, it should consult the scoreboard to
determine what operation it can do next.  [...] a single processor
will thus be multitasked, able to develop several chains of the search
tree at one time."

The model: a pool of :class:`FunctionalUnit` instances per *kind*
(``unify``, ``copy``, ``search``, ``arith``, ``select``), a scoreboard
that issues :class:`MicroOp` s when (a) a unit of the right kind is
free (structural hazard), (b) all source tags have been produced (RAW
hazard), and (c) no in-flight op writes the same destination tag (WAW
hazard).  Ops are tagged dataflow, not registers — the "local
interpreter of the B-LOG language in terms of production rules": each
unitary action produces a value tag consumed by later actions.

:func:`expansion_program` compiles one OR-node expansion into a micro-op
DAG (search for candidates → per-candidate unify → per-child copy →
select), which is what the processor model feeds the scoreboard to cost
an expansion; independent candidates overlap on parallel units.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

__all__ = [
    "MicroOp",
    "FunctionalUnit",
    "Scoreboard",
    "ScoreboardStats",
    "DEFAULT_LATENCIES",
    "DEFAULT_UNIT_COUNTS",
    "expansion_program",
]

DEFAULT_LATENCIES: dict[str, int] = {
    "search": 4,  # candidate lookup in the paged subgraph
    "unify": 3,  # head unification / variable instantiation
    "copy": 2,  # chain copy (multiply-write assisted)
    "arith": 1,  # builtin arithmetic
    "select": 1,  # min-bound selection among local chains
}

DEFAULT_UNIT_COUNTS: dict[str, int] = {
    "search": 1,
    "unify": 2,
    "copy": 2,
    "arith": 1,
    "select": 1,
}


@dataclass
class MicroOp:
    """One unitary action: consumes ``sources`` tags, produces ``dest``."""

    kind: str
    dest: str
    sources: tuple[str, ...] = ()
    latency: Optional[int] = None  # override kind default

    def __post_init__(self) -> None:
        if self.dest in self.sources:
            raise ValueError(f"op {self.dest} depends on itself")


@dataclass
class FunctionalUnit:
    """A hardware unit executing one op at a time."""

    kind: str
    index: int
    busy_until: int = -1
    current: Optional[MicroOp] = None

    @property
    def name(self) -> str:
        return f"{self.kind}{self.index}"


@dataclass
class ScoreboardStats:
    cycles: int = 0
    issued: int = 0
    raw_stalls: int = 0
    structural_stalls: int = 0
    unit_busy: dict[str, int] = field(default_factory=dict)

    def utilization(self, unit_counts: dict[str, int]) -> dict[str, float]:
        """Busy fraction per unit kind."""
        out = {}
        for kind, count in unit_counts.items():
            busy = self.unit_busy.get(kind, 0)
            out[kind] = busy / (self.cycles * count) if self.cycles else 0.0
        return out


class Scoreboard:
    """Issue/complete loop over a micro-op list.

    ``run`` executes a whole program and returns total cycles; the
    in-order *issue window* is the whole remaining list (dataflow
    order, like the 6600's reservation of units, not program order),
    so independent ops overlap as the paper intends.
    """

    def __init__(
        self,
        unit_counts: Optional[dict[str, int]] = None,
        latencies: Optional[dict[str, int]] = None,
    ):
        self.unit_counts = dict(DEFAULT_UNIT_COUNTS if unit_counts is None else unit_counts)
        self.latencies = dict(DEFAULT_LATENCIES if latencies is None else latencies)
        self.units: list[FunctionalUnit] = []
        for kind, count in self.unit_counts.items():
            for i in range(count):
                self.units.append(FunctionalUnit(kind, i))

    def run(self, program: Sequence[MicroOp], max_cycles: int = 1_000_000) -> ScoreboardStats:
        """Execute ``program`` to completion; returns stats (incl. cycles)."""
        stats = ScoreboardStats()
        ready_tags: set[str] = set()
        pending_dest: set[str] = set()
        waiting = list(program)
        for op in waiting:
            if op.dest in pending_dest:
                raise ValueError(f"duplicate destination tag {op.dest!r}")
            pending_dest.add(op.dest)
        in_flight: list[tuple[int, FunctionalUnit, MicroOp]] = []
        cycle = 0
        while waiting or in_flight:
            if cycle > max_cycles:
                raise RuntimeError("scoreboard exceeded max cycles — deadlock?")
            # complete ops finishing now
            still = []
            for done_at, unit, op in in_flight:
                if done_at <= cycle:
                    ready_tags.add(op.dest)
                    unit.current = None
                else:
                    still.append((done_at, unit, op))
            in_flight = still
            # issue every ready op that can get a unit this cycle
            issued_now: list[MicroOp] = []
            for op in waiting:
                missing = [s for s in op.sources if s not in ready_tags]
                if missing:
                    stats.raw_stalls += 1
                    continue
                # WAW: dest already being produced in flight
                if any(f[2].dest == op.dest for f in in_flight):
                    continue
                unit = self._free_unit(op.kind)
                if unit is None:
                    stats.structural_stalls += 1
                    continue
                lat = op.latency if op.latency is not None else self.latencies[op.kind]
                unit.current = op
                stats.unit_busy[op.kind] = stats.unit_busy.get(op.kind, 0) + lat
                in_flight.append((cycle + lat, unit, op))
                issued_now.append(op)
                stats.issued += 1
            for op in issued_now:
                waiting.remove(op)
            cycle += 1
            # jump the clock to the next completion when fully stalled
            if not issued_now and in_flight:
                cycle = max(cycle, min(done for done, _, _ in in_flight))
        stats.cycles = cycle
        return stats

    def _free_unit(self, kind: str) -> Optional[FunctionalUnit]:
        for u in self.units:
            if u.kind == kind and u.current is None:
                return u
        return None


_op_counter = itertools.count()


def expansion_program(
    n_candidates: int,
    n_matches: int,
    chain_words: int = 8,
    copy_words_per_cycle: int = 4,
) -> list[MicroOp]:
    """Compile one OR-node expansion into a scoreboard micro-op DAG.

    ``search`` produces the candidate list; each of the ``n_candidates``
    head unifications depends only on it (they overlap on the unify
    units); each of the ``n_matches`` successful candidates needs a
    chain copy (latency scales with chain size); a final ``select``
    consumes all copies (choose next local minimum).
    """
    if n_matches > n_candidates:
        raise ValueError("matches cannot exceed candidates")
    uid = next(_op_counter)
    ops: list[MicroOp] = []
    search_tag = f"cand{uid}"
    ops.append(MicroOp("search", search_tag))
    copy_latency = max(1, chain_words // copy_words_per_cycle)
    copy_tags: list[str] = []
    for i in range(n_candidates):
        unify_tag = f"u{uid}_{i}"
        ops.append(MicroOp("unify", unify_tag, (search_tag,)))
        if i < n_matches:
            copy_tag = f"c{uid}_{i}"
            ops.append(
                MicroOp("copy", copy_tag, (unify_tag,), latency=copy_latency)
            )
            copy_tags.append(copy_tag)
    ops.append(MicroOp("select", f"sel{uid}", tuple(copy_tags) or (search_tag,)))
    return ops
