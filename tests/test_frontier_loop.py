"""Reference differential for the one frontier loop.

The engine, the §3 strategies, :class:`BranchAndBound` and the §6
scoreboard interpreter all run :func:`repro.ortree.frontier.search`.
Each used to carry its own pop / solution / prune / expand loop.  The
four loops are kept below, verbatim, as reference implementations, and
every case runs both and compares what a caller can observe:

* solution node ids (or states) and bounds, in order;
* expansions, generated, pruned and ``expansions_to_first``;
* for the engine, the answers, ``update_logs`` and the final weight
  store by digest;
* for ``simulate_query``, the whole :class:`InterpreterReport`;
* for ``BranchAndBound``, the result on subset-sum instances as well.

The references differ from the old code in one place only: the engine
loop read ``BLogConfig.prune_bound``, a field that no longer exists.
No caller ever set it, so the reference runs with its default, False.

The loops did not agree on one point, and each caller keeps its own
answer.  The strategies record a popped solution before they test the
incumbent; ``BranchAndBound`` tests the incumbent first, so a popped
solution worse than the incumbent is pruned, not recorded.
:func:`test_prune_order_hazard` pins both sides.
"""

from __future__ import annotations

import hashlib
import heapq
import zlib
from dataclasses import dataclass, field
from typing import Optional

import pytest

from repro.bandb import BnBNode, BnBProblem, BoundViolation, BranchAndBound, OrTreeProblem
from repro.core import BLogConfig, BLogEngine
from repro.core.engine import QueryResult
from repro.logic import Program
from repro.logic.terms import reset_var_counter
from repro.machine.interpreter import (
    InterpreterReport,
    compile_expansion,
    simulate_query,
)
from repro.machine.scoreboard import Scoreboard
from repro.ortree import ArcKey, OrTree, best_first, breadth_first, depth_first
from repro.ortree.tree import NodeStatus, OrNode
from repro.weights.policies import on_failure_policy, on_success_policy
from repro.workloads import (
    family_program,
    nqueens_program,
    nqueens_query,
    nrev_program,
    nrev_query,
    synthetic_tree,
)

# -- the reference loops, as they were ----------------------------------------


class ReferenceEngine(BLogEngine):
    """``BLogEngine`` with its old ``query_iter`` and ``_search_loop``."""

    def query_iter(
        self,
        query,
        max_solutions=None,
        keep_tree=False,
        update_weights=True,
    ):
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

        def apply_update(solved: bool, nid: int):
            arcs = tree.chain_arcs(nid)
            if solved:
                return on_success_policy(store, arcs, cfg.success_distribute)
            return on_failure_policy(store, arcs, cfg.failure_blame)

        def outcome(solved: bool, nid: int) -> None:
            if update_weights:
                result.update_logs.append(apply_update(solved, nid))

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
            if keep_tree:
                result.tree = tree
            self.queries_run += 1

    def _search_loop(
        self, heap, counter, incumbent, tree, result, cfg, max_solutions, outcome
    ):
        prune_bound = False  # was cfg.prune_bound; see the module docstring
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
            if prune_bound and incumbent is not None and bound > incumbent:
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


@dataclass
class SearchResult:
    """Outcome and work accounting of one search run."""

    strategy: str
    solutions: list[OrNode] = field(default_factory=list)
    expansions: int = 0  # nodes whose fan-out we computed
    generated: int = 0  # children created
    pruned: int = 0  # frontier nodes cut off by the incumbent bound
    expansions_to_first: Optional[int] = None
    solution_bounds: list[float] = field(default_factory=list)

    @property
    def found(self) -> bool:
        return bool(self.solutions)

    def record_solution(self, node: OrNode) -> None:
        self.solutions.append(node)
        self.solution_bounds.append(node.bound)
        if self.expansions_to_first is None:
            self.expansions_to_first = self.expansions


class SearchStrategy:
    """Base class: a frontier discipline over an :class:`OrTree`."""

    name = "abstract"

    def __init__(self, tree: OrTree, prune_bound: bool = False):
        self.tree = tree
        self.prune_bound = prune_bound
        self.result = SearchResult(strategy=self.name)
        self._incumbent: Optional[float] = None
        self._push(tree.root)

    # frontier interface ------------------------------------------------------
    def _push(self, node: OrNode) -> None:
        raise NotImplementedError

    def _pop(self) -> Optional[OrNode]:
        raise NotImplementedError

    def _has_work(self) -> bool:
        raise NotImplementedError

    # main loop -----------------------------------------------------------------
    def run(
        self,
        max_solutions: Optional[int] = None,
        max_expansions: int = 1_000_000,
    ) -> SearchResult:
        """Search until ``max_solutions`` found or the frontier is empty."""
        while self._has_work():
            if self.result.expansions >= max_expansions:
                break
            node = self._pop()
            if node is None:
                break
            if node.status is NodeStatus.SOLUTION:
                self.result.record_solution(node)
                if self.prune_bound and (
                    self._incumbent is None or node.bound < self._incumbent
                ):
                    self._incumbent = node.bound
                if max_solutions is not None and len(self.result.solutions) >= max_solutions:
                    break
                continue
            if (
                self.prune_bound
                and self._incumbent is not None
                and node.bound > self._incumbent
            ):
                self.result.pruned += 1
                continue
            before = self.tree.generated
            children = self.tree.expand(node.nid)
            self.result.expansions += 1
            self.result.generated += self.tree.generated - before
            for cid in self._order_children(children):
                self._push(self.tree.node(cid))
        return self.result

    def _order_children(self, children: list[int]) -> list[int]:
        """Push order; DFS overrides to reverse (leftmost popped first)."""
        return children


class _DepthFirst(SearchStrategy):
    """LIFO frontier; children pushed right-to-left => Prolog order."""

    name = "depth-first"

    def __init__(self, tree: OrTree, prune_bound: bool = False):
        self._stack: list[OrNode] = []
        super().__init__(tree, prune_bound)

    def _push(self, node: OrNode) -> None:
        self._stack.append(node)

    def _pop(self) -> Optional[OrNode]:
        return self._stack.pop() if self._stack else None

    def _has_work(self) -> bool:
        return bool(self._stack)

    def _order_children(self, children: list[int]) -> list[int]:
        return list(reversed(children))


class _BreadthFirst(SearchStrategy):
    """FIFO frontier."""

    name = "breadth-first"

    def __init__(self, tree: OrTree, prune_bound: bool = False):
        self._queue: list[OrNode] = []
        self._head = 0
        super().__init__(tree, prune_bound)

    def _push(self, node: OrNode) -> None:
        self._queue.append(node)

    def _pop(self) -> Optional[OrNode]:
        if self._head >= len(self._queue):
            return None
        node = self._queue[self._head]
        self._head += 1
        return node

    def _has_work(self) -> bool:
        return self._head < len(self._queue)


class _BestFirst(SearchStrategy):
    """Least-bound-first frontier; ties broken by insertion order."""

    name = "best-first"

    def __init__(self, tree: OrTree, prune_bound: bool = False):
        self._heap: list[tuple[float, int, OrNode]] = []
        self._counter = 0
        super().__init__(tree, prune_bound)

    def _push(self, node: OrNode) -> None:
        heapq.heappush(self._heap, (node.bound, self._counter, node))
        self._counter += 1

    def _pop(self) -> Optional[OrNode]:
        if not self._heap:
            return None
        return heapq.heappop(self._heap)[2]

    def _has_work(self) -> bool:
        return bool(self._heap)


@dataclass
class BnBResult:
    """Search outcome: solutions in discovery order plus work counters."""

    solutions: list = field(default_factory=list)
    expansions: int = 0
    generated: int = 0
    pruned: int = 0
    incumbent: Optional[float] = None


def reference_bnb(
    problem,
    check_monotone: bool = True,
    max_solutions: Optional[int] = 1,
    max_expansions: int = 1_000_000,
    prune: bool = True,
) -> BnBResult:
    """``BranchAndBound.run``'s old body, with ``self`` unpacked."""
    result = BnBResult()
    heap: list[tuple[float, int, BnBNode]] = []
    counter = 0
    root = BnBNode(problem.root(), 0.0, 0)
    heapq.heappush(heap, (0.0, counter, root))
    while heap:
        if result.expansions >= max_expansions:
            break
        bound, _, node = heapq.heappop(heap)
        if (
            prune
            and result.incumbent is not None
            and bound > result.incumbent
        ):
            result.pruned += 1
            continue
        if problem.is_solution(node.state):
            result.solutions.append(node)
            if result.incumbent is None or node.bound < result.incumbent:
                result.incumbent = node.bound
            if max_solutions is not None and len(result.solutions) >= max_solutions:
                break
            continue
        result.expansions += 1
        for child_state, cost in problem.branch(node.state):
            if check_monotone and cost < 0:
                raise BoundViolation(
                    f"negative arc cost {cost} from state {node.state!r}"
                )
            child = BnBNode(child_state, node.bound + cost, node.depth + 1, node)
            result.generated += 1
            counter += 1
            heapq.heappush(heap, (child.bound, counter, child))
    return result


def reference_simulate_query(
    tree: OrTree,
    scoreboard: Optional[Scoreboard] = None,
    max_solutions: Optional[int] = None,
    max_expansions: int = 10_000,
) -> InterpreterReport:
    sb = scoreboard if scoreboard is not None else Scoreboard()
    report = InterpreterReport()
    heap: list[tuple[float, int, int]] = [(tree.root.bound, 0, tree.root.nid)]
    counter = 0
    while heap and report.expansions < max_expansions:
        _, _, nid = heapq.heappop(heap)
        node = tree.node(nid)
        if node.status is NodeStatus.SOLUTION:
            report.answers += 1
            if max_solutions is not None and report.answers >= max_solutions:
                break
            continue
        program = compile_expansion(tree, nid)
        if program:
            stats = sb.run(program)
            report.total_cycles += stats.cycles
            report.ops_issued += stats.issued
            report.raw_stalls += stats.raw_stalls
            report.structural_stalls += stats.structural_stalls
            for kind, busy in stats.unit_busy.items():
                report.unit_busy[kind] = report.unit_busy.get(kind, 0) + busy
        for cid in tree.expand(nid):
            child = tree.node(cid)
            counter += 1
            heapq.heappush(heap, (child.bound, counter, cid))
        report.expansions += 1
    return report


# -- inputs -------------------------------------------------------------------

#: name -> (program factory, query)
PROGRAMS = {
    "figure1": (family_program, "gf(sam, G)"),
    "queens4": (lambda: nqueens_program(4), nqueens_query()),
    "nrev8": (nrev_program, nrev_query(8)[0]),
    **{
        f"synthetic{seed}": (
            lambda seed=seed: synthetic_tree(3, 3, 0.34, seed=seed).program,
            "l0(W)",
        )
        for seed in (0, 1, 2)
    },
}
POLICIES = ("pointer", "goal")
DEPTHS = (4, 16)
MAX_SOLUTIONS = (None, 1, 2)
MAX_EXPANSIONS = (3, 1_000_000)
_programs: dict[str, Program] = {}


def program(name: str) -> Program:
    if name not in _programs:
        _programs[name] = PROGRAMS[name][0]()
    return _programs[name]


def weight_fn(key: ArcKey) -> float:
    """Deterministic weights in 0..4: bounds differ, and ties happen."""
    return float(zlib.crc32(str(key).encode()) % 5)


def fresh_tree(name: str, policy: str, depth: int) -> OrTree:
    return OrTree(
        program(name), PROGRAMS[name][1], weight_fn=weight_fn,
        arc_key_policy=policy, max_depth=depth,
    )


def store_digest(store) -> str:
    entries = sorted(
        f"{key} {entry.state.value} {entry.value!r}"
        for key, entry in store.snapshot().items()
    )
    return hashlib.sha256("\n".join(entries).encode()).hexdigest()


def grid(*axes):
    cases = [()]
    for axis in axes:
        cases = [c + (v,) for c in cases for v in axis]
    return cases


# -- the engine ---------------------------------------------------------------


def engine_record(engine_cls, name, policy, depth, max_solutions, max_expansions):
    reset_var_counter()
    config = BLogConfig(
        arc_key_policy=policy, max_depth=depth,
        max_expansions=max_expansions,
    )
    engine = engine_cls(program(name), config)
    runs = []
    for _ in range(2):  # the second run orders its frontier by learned weights
        r = engine.query(PROGRAMS[name][1], max_solutions=max_solutions, keep_tree=True)
        runs.append(
            {
                "answers": [{k: str(v) for k, v in a.items()} for a in r.answers],
                "solution_bounds": r.solution_bounds,
                "counters": (
                    r.expansions, r.generated, r.pruned, r.failures,
                    r.depth_cutoffs, r.expansions_to_first, r.complete,
                ),
                "update_logs": r.update_logs,
                "words_copied": r.tree.words_copied,
            }
        )
    return runs, store_digest(engine.store)


@pytest.mark.parametrize(
    "name, policy, depth, max_solutions, max_expansions",
    grid(PROGRAMS, POLICIES, DEPTHS, MAX_SOLUTIONS, MAX_EXPANSIONS),
)
def test_engine_matches_reference(name, policy, depth, max_solutions, max_expansions):
    args = (name, policy, depth, max_solutions, max_expansions)
    assert engine_record(BLogEngine, *args) == engine_record(ReferenceEngine, *args)


def test_engine_lazy_iteration_matches_reference():
    """Stopping a ``query_iter`` consumer early leaves the same partial
    result and learned store."""
    out = []
    for engine_cls in (BLogEngine, ReferenceEngine):
        reset_var_counter()
        engine = engine_cls(program("synthetic1"), BLogConfig(max_depth=16))
        it = engine.query_iter("l0(W)")
        first = next(it)
        it.close()
        r = engine.last_result
        out.append((first, r.answers, r.expansions, r.generated, r.update_logs,
                    store_digest(engine.store)))
    assert out[0] == out[1]


# -- the §3 strategies --------------------------------------------------------

STRATEGIES = {
    "depth-first": (depth_first, _DepthFirst),
    "breadth-first": (breadth_first, _BreadthFirst),
    "best-first": (best_first, _BestFirst),
}


def search_record(res) -> tuple:
    return (
        [(n.nid, n.bound) for n in res.solutions],
        res.solution_bounds,
        res.expansions,
        res.generated,
        res.pruned,
        res.expansions_to_first,
    )


@pytest.mark.parametrize(
    "strategy, name, policy, depth",
    grid(STRATEGIES, PROGRAMS, POLICIES, DEPTHS),
)
def test_strategies_match_reference(strategy, name, policy, depth):
    fn, reference = STRATEGIES[strategy]
    for max_solutions, max_expansions, prune in grid(
        MAX_SOLUTIONS, MAX_EXPANSIONS, (False, True)
    ):
        got = fn(fresh_tree(name, policy, depth), max_solutions, prune, max_expansions)
        want = reference(fresh_tree(name, policy, depth), prune).run(
            max_solutions, max_expansions
        )
        assert search_record(got) == search_record(want), (max_solutions, max_expansions, prune)


# -- BranchAndBound -----------------------------------------------------------


class SubsetSum(BnBProblem):
    """Pick items summing exactly to a target; the bound is the sum taken."""

    def __init__(self, items, target):
        self.items = list(items)
        self.target = target

    def root(self):
        return (0, self.target)

    def branch(self, state):
        ix, remaining = state
        if ix >= len(self.items) or remaining <= 0:
            return
        w = self.items[ix]
        if w <= remaining:
            yield (ix + 1, remaining - w), float(w)  # take
        yield (ix + 1, remaining), 0.0  # skip

    def is_solution(self, state):
        return state[1] == 0


def bnb_record(res) -> tuple:
    return (
        [(n.state, n.bound) for n in res.solutions],
        res.expansions,
        res.generated,
        res.pruned,
        res.incumbent,
    )


@pytest.mark.parametrize("name, policy, depth", grid(PROGRAMS, POLICIES, DEPTHS))
def test_bnb_on_trees_matches_reference(name, policy, depth):
    for max_solutions, max_expansions, prune in grid(
        MAX_SOLUTIONS, MAX_EXPANSIONS, (False, True)
    ):
        got = BranchAndBound(OrTreeProblem(fresh_tree(name, policy, depth))).run(
            max_solutions, max_expansions, prune
        )
        want = reference_bnb(
            OrTreeProblem(fresh_tree(name, policy, depth)), True,
            max_solutions, max_expansions, prune,
        )
        assert bnb_record(got) == bnb_record(want), (max_solutions, max_expansions, prune)


SUBSET_SUMS = [
    ([5, 3, 2, 7], 10),
    ([1, 2, 3, 4], 5),
    ([1, 1, 1, 9], 3),
    ([0, 5], 0),
    ([4, 4], 3),
    ([3, 1, 4, 1, 5, 9, 2, 6], 12),
]


@pytest.mark.parametrize("items, target", SUBSET_SUMS)
def test_bnb_on_subset_sums_matches_reference(items, target):
    for max_solutions, max_expansions, prune in grid(
        MAX_SOLUTIONS, MAX_EXPANSIONS, (False, True)
    ):
        got = BranchAndBound(SubsetSum(items, target)).run(
            max_solutions, max_expansions, prune
        )
        want = reference_bnb(
            SubsetSum(items, target), True, max_solutions, max_expansions, prune
        )
        assert bnb_record(got) == bnb_record(want), (max_solutions, max_expansions, prune)


def test_prune_order_hazard():
    """Pruning on, all solutions wanted, and a strictly worse solution
    already on the frontier when the better one pops: best-first records
    it, branch and bound prunes it, each as its old loop did."""
    prog = Program.from_source("p(a).\np(b).\n")

    def tree() -> OrTree:
        # p(a) costs 0, p(b) costs 1: both solution children are pushed
        # by the root's one expansion
        return OrTree(prog, "p(X)", weight_fn=lambda k: float(k.key[-1]))

    got = best_first(tree(), max_solutions=None, prune_bound=True)
    want = _BestFirst(tree(), prune_bound=True).run(None)
    assert search_record(got) == search_record(want)
    assert got.solution_bounds == [0.0, 1.0] and got.pruned == 0

    got_bnb = BranchAndBound(OrTreeProblem(tree())).run(max_solutions=None, prune=True)
    want_bnb = reference_bnb(OrTreeProblem(tree()), max_solutions=None, prune=True)
    assert bnb_record(got_bnb) == bnb_record(want_bnb)
    assert [s.bound for s in got_bnb.solutions] == [0.0] and got_bnb.pruned == 1


# -- the scoreboard interpreter -----------------------------------------------


@pytest.mark.parametrize("name, policy, depth", grid(PROGRAMS, POLICIES, DEPTHS))
def test_simulate_query_matches_reference(name, policy, depth):
    for max_solutions, max_expansions in grid(MAX_SOLUTIONS, MAX_EXPANSIONS):
        got = simulate_query(fresh_tree(name, policy, depth), None, max_solutions, max_expansions)
        want = reference_simulate_query(
            fresh_tree(name, policy, depth), None, max_solutions, max_expansions
        )
        assert got == want, (max_solutions, max_expansions)
