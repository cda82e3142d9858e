"""The B-LOG engine: best-first branch-and-bound execution of logic
programs with adaptive pointer weights and sessions.

This is the paper's primary contribution assembled: queries are solved
by expanding the OR-tree least-bound-first, where bounds come from the
weight store (§4–5); every solution/failure outcome updates the store
through the §5 rules ("This heuristic employs some adaptive control
strategy.  If a successful query is found, the next search will try
this path early and if an unsuccessful search is detected, its path
will be avoided until all the others have been attempted"); and the
session protocol separates strong local learning from conservative
global knowledge.

Completeness: the engine never *discards* chains — weights only order
them (plus the optional §3 incumbent cutoff) — so "B-LOG offers an
alternative to Prolog's sequentially oriented depth-first search,
without giving up completeness" (§8).  Tests verify solution-set
equality against the Prolog baseline on a corpus of programs.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from ..logic.program import Program
from ..logic.terms import Term
from ..ortree.tree import NodeStatus, OrNode, OrTree
from ..weights.policies import on_failure_policy, on_success_policy
from ..weights.session import MergeReport, SessionManager
from ..weights.store import WeightStore
from ..weights.update import UpdateLog
from .config import BLogConfig

__all__ = ["BLogEngine", "QueryResult"]


@dataclass
class QueryResult:
    """Outcome of one B-LOG query."""

    query: str | Sequence[Term]
    answers: list[dict[str, Term]] = field(default_factory=list)
    solution_bounds: list[float] = field(default_factory=list)
    expansions: int = 0
    generated: int = 0
    pruned: int = 0
    expansions_to_first: Optional[int] = None
    failures: int = 0
    #: leaves cut off at ``max_depth``: neither failures nor learned from
    depth_cutoffs: int = 0
    #: False when ``max_expansions`` stopped the search or a depth cutoff
    #: occurred, so answers may be missing; reaching ``max_solutions``
    #: leaves it True
    complete: bool = True
    update_logs: list[UpdateLog] = field(default_factory=list)
    tree: Optional[OrTree] = None

    @property
    def solved(self) -> bool:
        return bool(self.answers)

    def answer_values(self, var: str) -> list[Term]:
        """Bindings of ``var`` across the answers (order of discovery)."""
        return [a[var] for a in self.answers if var in a]


class BLogEngine:
    """Best-first branch-and-bound logic-program executor.

    Parameters
    ----------
    program:
        The knowledge base.
    config:
        Engine constants (N, A, α, policies); see :class:`BLogConfig`.
    global_store:
        Pre-seeded global weight store (e.g. from
        :func:`~repro.weights.theory.store_from_theory`); a fresh one
        is created when omitted.
    """

    def __init__(
        self,
        program: Program,
        config: Optional[BLogConfig] = None,
        global_store: Optional[WeightStore] = None,
    ):
        self.program = program
        self.config = config or BLogConfig()
        # explicit None check: an empty WeightStore is falsy (len 0)
        if global_store is None:
            global_store = WeightStore(n=self.config.n, a=self.config.a)
        store = global_store
        self.sessions = SessionManager(store, alpha=self.config.alpha)
        self.queries_run = 0

    # -- session protocol -------------------------------------------------------
    @property
    def store(self) -> WeightStore:
        """The weight store queries currently read and update."""
        return self.sessions.active

    def begin_session(self) -> None:
        """Start a session: subsequent updates are local (strong)."""
        self.sessions.begin_session()

    def end_session(self, conservative: bool = True) -> MergeReport:
        """End the session, merging into the global store (§5 rules)."""
        return self.sessions.end_session(conservative=conservative)

    # -- querying ------------------------------------------------------------------
    def query(
        self,
        query: str | Sequence[Term],
        max_solutions: Optional[int] = None,
        keep_tree: bool = False,
        update_weights: bool = True,
    ) -> QueryResult:
        """Run ``query`` best-first under the current weights.

        The frontier is ordered by chain bound (ties: generation
        order).  Each solution/failure leaf triggers the §5 update rules
        on the *active* store immediately when ``live_updates`` is on,
        so later expansions of the same query already see the new
        weights; with it off, updates are applied after the search in
        discovery order (the "update at end of search" variant).
        """
        it = self.query_iter(
            query,
            max_solutions=max_solutions,
            keep_tree=keep_tree,
            update_weights=update_weights,
        )
        for _ in it:
            pass
        return self.last_result

    def query_iter(
        self,
        query: str | Sequence[Term],
        max_solutions: Optional[int] = None,
        keep_tree: bool = False,
        update_weights: bool = True,
    ):
        """Lazily yield answers as best-first search discovers them.

        Learning happens incrementally: by the time an answer is
        yielded, its chain's §5 update has already been applied, so a
        consumer can stop at any point and keep the partial knowledge.
        The full :class:`QueryResult` is available afterwards as
        :attr:`last_result`.
        """
        cfg = self.config
        store = self.store
        tree = OrTree(
            self.program,
            query,
            weight_fn=store.weight_fn(),
            arc_key_policy=cfg.arc_key_policy,
            max_depth=cfg.max_depth,
            selection_rule=cfg.selection_rule,
        )
        result = QueryResult(query=query)
        self.last_result = result  # available even on early consumer exit
        deferred: list[tuple[bool, int]] = []  # (solved, leaf id)

        def apply_update(solved: bool, nid: int) -> UpdateLog:
            arcs = tree.chain_arcs(nid)
            if solved:
                return on_success_policy(store, arcs, cfg.success_distribute)
            return on_failure_policy(store, arcs, cfg.failure_blame)

        def outcome(solved: bool, nid: int) -> None:
            if not update_weights:
                return
            if cfg.live_updates:
                result.update_logs.append(apply_update(solved, nid))
            else:
                deferred.append((solved, nid))

        heap: list[tuple[float, int, int]] = []
        counter = 0
        heapq.heappush(heap, (tree.root.bound, counter, tree.root.nid))
        incumbent: Optional[float] = None
        try:
            yield from self._search_loop(
                heap, counter, incumbent, tree, result, cfg,
                max_solutions, outcome,
            )
        finally:
            for solved, nid in deferred:
                result.update_logs.append(apply_update(solved, nid))
            if keep_tree:
                result.tree = tree
            self.queries_run += 1

    def _search_loop(
        self, heap, counter, incumbent, tree, result, cfg, max_solutions, outcome
    ):
        import heapq

        while heap:
            if result.expansions >= cfg.max_expansions:
                result.complete = False
                break
            bound, _, nid = heapq.heappop(heap)
            node = tree.node(nid)
            if node.status is NodeStatus.SOLUTION:
                answer = tree.solution_answer(node)
                result.answers.append(answer)
                result.solution_bounds.append(node.bound)
                if result.expansions_to_first is None:
                    result.expansions_to_first = result.expansions
                outcome(True, nid)
                if incumbent is None or node.bound < incumbent:
                    incumbent = node.bound
                yield answer
                if max_solutions is not None and len(result.answers) >= max_solutions:
                    break
                continue
            if cfg.prune_bound and incumbent is not None and bound > incumbent:
                result.pruned += 1
                continue
            before = tree.generated
            cutoffs = tree.depth_cutoffs
            children = tree.expand(nid)
            result.expansions += 1
            result.generated += tree.generated - before
            if tree.depth_cutoffs != cutoffs:
                # the depth limit, not the program, ended this chain: it
                # is no §5 failure, so nothing is learned from it
                result.depth_cutoffs += 1
                result.complete = False
                continue
            if not children:
                result.failures += 1
                outcome(False, nid)
                continue
            for cid in children:
                child = tree.node(cid)
                counter += 1
                heapq.heappush(heap, (child.bound, counter, cid))

    def solve_values(
        self,
        query: str | Sequence[Term],
        var: str,
        max_solutions: Optional[int] = None,
    ) -> list[Term]:
        """Convenience: bindings of ``var`` for each answer."""
        return self.query(query, max_solutions=max_solutions).answer_values(var)

    def run_session(
        self,
        queries: Sequence[str | Sequence[Term]],
        max_solutions: Optional[int] = None,
        conservative: bool = True,
    ) -> list[QueryResult]:
        """Run a whole session: begin, execute queries, merge, return results."""
        self.begin_session()
        try:
            results = [self.query(q, max_solutions=max_solutions) for q in queries]
        except Exception:
            self.sessions.abort_session()
            raise
        self.end_session(conservative=conservative)
        return results
