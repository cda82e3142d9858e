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

The search itself is the shared frontier loop
(:func:`~repro.ortree.frontier.search`) with the best-first discipline;
the engine adds answer extraction and the §5 learning hook,
:meth:`BLogEngine.learner`, through which the simulated §6 machine
(:meth:`BLogEngine.run_machine`) learns too.

Completeness: the engine never *discards* chains — weights only order
them, and it never applies the §3 incumbent cutoff — so "B-LOG offers
an alternative to Prolog's sequentially oriented depth-first search,
without giving up completeness" (§8).  Tests verify solution-set
equality against the Prolog baseline on a corpus of programs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from ..logic.program import Program
from ..logic.terms import Term
from ..machine.blog_machine import BLogMachine, MachineConfig, MachineResult
from ..ortree.frontier import BestFirst, SearchCounters, is_solution, search, tree_expander
from ..ortree.tree import OrArc, OrNode, OrTree
from ..spd.ops import SemanticPagingDisk
from ..weights.policies import on_failure_policy, on_success_policy
from ..weights.session import MergeReport, SessionManager
from ..weights.store import WeightStore
from ..weights.update import Learner, UpdateLog
from .config import BLogConfig

__all__ = ["BLogEngine", "QueryResult"]


@dataclass
class QueryResult(SearchCounters):
    """Outcome of one B-LOG query."""

    query: str | Sequence[Term]
    answers: list[dict[str, Term]] = field(default_factory=list)
    solution_bounds: list[float] = field(default_factory=list)
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
        self.sessions = SessionManager(global_store, alpha=self.config.alpha)
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
        order).  Each solution/failure leaf applies the §5 update rules
        to the *active* store at once, so later expansions of the same
        query already see the new weights.
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

    def build_tree(self, query: str | Sequence[Term]) -> OrTree:
        """The OR tree of ``query`` under this engine's config, weighed
        by the active store (every engine searches one built here)."""
        cfg = self.config
        return OrTree(
            self.program,
            query,
            weight_fn=self.store.weight_fn(),
            arc_key_policy=cfg.arc_key_policy,
            max_depth=cfg.max_depth,
            selection_rule=cfg.selection_rule,
        )

    def learner(self) -> Learner:
        """The §5 hook: ``learn(arcs, solved)`` applies the configured
        ``failure_blame`` / ``success_distribute`` rule to the chain
        ``arcs`` in the active store and returns the update's log.  The
        engine's search and the §6 machine both learn through it."""
        store = self.store
        blame, distribute = self.config.failure_blame, self.config.success_distribute

        def learn(arcs: Sequence[OrArc], solved: bool) -> UpdateLog:
            if solved:
                return on_success_policy(store, arcs, distribute)
            return on_failure_policy(store, arcs, blame)

        return learn

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
        A leaf cut off at ``max_depth`` is not learned from.  The full
        :class:`QueryResult` is available afterwards as
        :attr:`last_result`.
        """
        tree = self.build_tree(query)
        result = QueryResult(query=query)
        self.last_result = result  # available even on early consumer exit
        learn, logs, chain_arcs = self.learner(), result.update_logs, tree.chain_arcs

        def failed(leaf: OrNode) -> None:
            logs.append(learn(chain_arcs(leaf.nid), False))

        try:
            for node in search(
                BestFirst(), tree.root, is_solution, tree_expander(tree), result,
                max_solutions, self.config.max_expansions,
                on_failure=failed if update_weights else None,
            ):
                answer = tree.solution_answer(node)
                result.answers.append(answer)
                result.solution_bounds.append(node.bound)
                if update_weights:
                    logs.append(learn(chain_arcs(node.nid), True))
                yield answer
        finally:
            if keep_tree:
                result.tree = tree
            self.queries_run += 1

    def run_machine(
        self,
        query: str | Sequence[Term],
        machine_config: MachineConfig,
        disk: Optional[SemanticPagingDisk] = None,
        max_solutions: Optional[int] = None,
    ) -> MachineResult:
        """Run ``query`` on the simulated §6 machine over the active
        store: the tree is :meth:`build_tree`'s and the machine learns
        through :meth:`learner`, exactly as a sequential query does."""
        tree = self.build_tree(query)
        if max_solutions is not None:
            machine_config = replace(machine_config, max_solutions=max_solutions)
        return BLogMachine(machine_config, disk=disk, learn=self.learner()).run(tree)

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
