"""The production-rule local interpreter of the B-LOG language (§6).

"The idea is to define a local interpreter of the B-LOG language in
terms of production rules.  We then implement each unitary action in a
hardware unit and use a scoreboard to schedule their use."

:func:`compile_expansion` translates one *actual* OR-node expansion
into the unitary actions the paper names, with operand-derived
latencies:

* one ``search`` (candidate retrieval) — latency grows with the
  candidate count (the associative scan serves them together, the
  pointer readout is linear);
* per candidate, a ``unify`` — latency proportional to the head's term
  size (variable instantiation work);
* per *successful* candidate, a ``copy`` — latency proportional to the
  child resolvent's size in words (the chain-sprouting copy traffic,
  divided by the multiply-write width);
* a closing ``select`` (next minimum among the local chains).

:func:`simulate_query` drives a whole query through the scoreboard:
it runs the shared best-first frontier loop, and each expansion is
compiled and executed inside the loop's expand step, accumulating total
cycles and per-unit utilization — the data for the §6 controller-design
questions (how many unify/copy units does a B-LOG processor want?).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from ..logic.solver import _rename_clause
from ..logic.terms import term_size
from ..logic.unify import Bindings, unify
from ..ortree.frontier import BestFirst, SearchCounters, is_solution, search, tree_expander
from ..ortree.tree import OrNode, OrTree
from .scoreboard import MicroOp, Scoreboard

__all__ = ["compile_expansion", "InterpreterReport", "simulate_query"]

_uid = itertools.count()


def compile_expansion(
    tree: OrTree,
    nid: int,
    copy_words_per_cycle: int = 4,
    unify_symbols_per_cycle: int = 2,
) -> list[MicroOp]:
    """Compile the expansion of node ``nid`` into micro-ops.

    Inspects the node's selected goal and the program's candidate
    clauses; performs trial unifications to decide which candidates
    produce children (and therefore need copies).  Does **not** mutate
    the tree.
    """
    node = tree.node(nid)
    goal = node.selected_goal
    uid = next(_uid)
    ops: list[MicroOp] = []
    search_tag = f"srch{uid}"
    if goal is None:
        return []
    try:
        candidates = tree.program.candidates(goal)
    except TypeError:
        candidates = []
    ops.append(
        MicroOp(
            "search",
            search_tag,
            latency=max(1, 2 + len(candidates) // 2),
        )
    )
    copy_tags: list[str] = []
    rest_words = sum(term_size(g) for g in node.goals[1:])
    for i, cid in enumerate(candidates):
        clause = tree.program.clause(cid)
        head, body = _rename_clause(clause)
        unify_tag = f"u{uid}_{i}"
        ops.append(
            MicroOp(
                "unify",
                unify_tag,
                (search_tag,),
                latency=max(1, term_size(head) // unify_symbols_per_cycle),
            )
        )
        b = Bindings()
        if unify(goal, head, b):
            child_words = rest_words + sum(term_size(g) for g in body)
            copy_tag = f"c{uid}_{i}"
            ops.append(
                MicroOp(
                    "copy",
                    copy_tag,
                    (unify_tag,),
                    latency=max(1, child_words // copy_words_per_cycle),
                )
            )
            copy_tags.append(copy_tag)
    ops.append(MicroOp("select", f"sel{uid}", tuple(copy_tags) or (search_tag,)))
    return ops


@dataclass
class InterpreterReport:
    """Whole-query scoreboard execution summary."""

    expansions: int = 0
    total_cycles: int = 0
    ops_issued: int = 0
    raw_stalls: int = 0
    structural_stalls: int = 0
    unit_busy: dict[str, int] = field(default_factory=dict)
    answers: int = 0

    def utilization(self, unit_counts: dict[str, int]) -> dict[str, float]:
        out = {}
        for kind, count in unit_counts.items():
            busy = self.unit_busy.get(kind, 0)
            total = self.total_cycles * count
            out[kind] = busy / total if total else 0.0
        return out


def simulate_query(
    tree: OrTree,
    scoreboard: Optional[Scoreboard] = None,
    max_solutions: Optional[int] = None,
    max_expansions: int = 10_000,
) -> InterpreterReport:
    """Run ``tree``'s query best-first, costing every expansion through
    the scoreboard.  Returns the aggregate report (the tree is developed
    as a side effect, exactly as a plain best-first search would)."""
    sb = scoreboard if scoreboard is not None else Scoreboard()
    report = InterpreterReport()
    counters = SearchCounters()
    tree_step = tree_expander(tree)

    def expand(node: OrNode) -> Optional[list[OrNode]]:
        program = compile_expansion(tree, node.nid)
        if program:
            stats = sb.run(program)
            report.total_cycles += stats.cycles
            report.ops_issued += stats.issued
            report.raw_stalls += stats.raw_stalls
            report.structural_stalls += stats.structural_stalls
            for kind, busy in stats.unit_busy.items():
                report.unit_busy[kind] = report.unit_busy.get(kind, 0) + busy
        return tree_step(node)

    solutions = search(
        BestFirst(), tree.root, is_solution, expand, counters, max_solutions, max_expansions
    )
    report.answers = sum(1 for _ in solutions)
    report.expansions = counters.expansions
    return report
