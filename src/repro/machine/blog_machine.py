"""The parallel B-LOG machine, assembled (§6).

"Initially, one processor is given the initial query [...] The other
processors use the minimum seeking network to wait for some chain to
work on.  As chains become available, they are sent to the awaiting
processors.  The priority network assigns a minimum to just one
awaiting processor at a time.  Thus, initially, the tree is searched
breadth-first to get all processors working.  [...] when a task
completes its extension of a chain, it will acquire a new chain, as
determined by the minimum seeking network [...] If the minimum over
the network is D lower than the minimum of the tasks in a processor,
the freed task would acquire the chain through the network, else it
would work on the minimum chain given by some task in its own
processor."

This module runs that protocol as a discrete-event simulation over a
shared :class:`~repro.ortree.tree.OrTree` (the logical search space —
access *costs* are modeled, the search itself is exact):

* N processors × M tasks, each task a DES process;
* one compute pipeline per processor (multitasking hides disk time);
* a minimum-seeking network with migration threshold D and transfer
  costs through the interconnect;
* optional SPD bank: expanding a node first pages in the candidate
  clause blocks (semantic page of radius 1) unless they are already in
  local memory;
* an optional §5 learning hook, called with each solution or failure
  leaf's chain, so the machine *learns* exactly like the sequential
  engine: :meth:`~repro.core.engine.BLogEngine.run_machine` passes the
  engine's own hook.  A leaf cut off at the tree's ``max_depth`` is
  neither a failure nor learned from, as in the engine's search.

The result reports makespan (cycles), per-processor utilization,
network traffic, and solution answers — everything E5/E6 sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..logic.terms import Term
from ..ortree.tree import NodeStatus, OrNode, OrTree
from ..spd.ops import SemanticPagingDisk
from ..weights.update import Learner, UpdateLog
from .interpreter import compile_expansion
from .network import Interconnect, MinSeekingNetwork
from .processor import INF, ProcessorState
from .scoreboard import Scoreboard, expansion_program
from .sim import Acquire, Simulator, Timeout, WaitSignal

__all__ = ["MachineConfig", "MachineResult", "BLogMachine"]


#: Cycle costs of the ``simple`` model: a base, one per candidate
#: clause and one per child chain copied.
BASE_EXPAND_CYCLES = 10.0
PER_CANDIDATE_CYCLES = 4.0
PER_CHILD_COPY_CYCLES = 6.0
#: Hamming distance of the semantic page an SPD page-in brings.
PAGE_RADIUS = 1


@dataclass
class MachineConfig:
    """Topology and cost knobs of the simulated machine (12 fields).

    The ``simple`` cost model's cycle counts and the page radius are
    the module constants above.
    """

    n_processors: int = 4
    tasks_per_processor: int = 2
    d: float = 4.0  # migration threshold (§6); initial value when adaptive
    adaptive_d: bool = False  # §6: "D can be modified at run time, based
    # on the measured communication overhead" — a multiplicative
    # controller raises D when transfer cycles dominate compute in the
    # last window and lowers it when processors idle with cheap comms
    adapt_window: int = 16  # expansions between controller updates
    memory_blocks: int = 64  # local memory capacity per processor
    chain_words_per_depth: int = 8  # chain size grows with depth
    model_disk_contention: bool = True  # page-ins queue on the SPD bank
    # (one server per SP: concurrent requests from different processors
    # serialize when they outnumber the search processors)
    cost_model: str = "simple"  # "simple" (linear formula), "scoreboard"
    # (fixed-shape micro-op program), or "interpreter" (§6 production
    # rules compiled from the node's real goal/candidates/term sizes)
    record_events: bool = False  # keep a (time, proc, task, kind, info)
    # trace of pops/expansions/migrations/outcomes — a Gantt source
    max_solutions: Optional[int] = None
    max_expansions: int = 100_000

    def __post_init__(self) -> None:
        if self.n_processors < 1 or self.tasks_per_processor < 1:
            raise ValueError("need at least one processor and one task")
        if self.d < 0:
            raise ValueError("D must be non-negative")
        if self.cost_model not in ("simple", "scoreboard", "interpreter"):
            raise ValueError("cost_model must be simple/scoreboard/interpreter")


@dataclass
class MachineResult:
    """Outcome of one machine run."""

    makespan: float = 0.0
    answers: list[dict[str, Term]] = field(default_factory=list)
    solution_bounds: list[float] = field(default_factory=list)
    expansions: int = 0
    failures: int = 0
    depth_cutoffs: int = 0  # leaves cut off at max_depth: not failures
    #: False after a depth cutoff, or when ``max_expansions`` stopped the
    #: run with chains still open; reaching ``max_solutions`` leaves it True
    complete: bool = True
    update_logs: list[UpdateLog] = field(default_factory=list)
    migrations: int = 0
    idle_pulls: int = 0  # migrations into an empty pool (D-independent)
    rebalances: int = 0  # steady-state steals gated by D
    per_processor_expansions: list[int] = field(default_factory=list)
    per_processor_utilization: list[float] = field(default_factory=list)
    network_words_moved: int = 0
    network_transfers: int = 0
    disk_cycles: float = 0.0
    local_memory_hit_rate: float = 0.0
    d_trajectory: list = field(default_factory=list)  # adaptive-D history
    final_d: float = 0.0
    events: list = field(default_factory=list)  # (time, proc, task, kind, info)

    @property
    def mean_utilization(self) -> float:
        if not self.per_processor_utilization:
            return 0.0
        return sum(self.per_processor_utilization) / len(self.per_processor_utilization)


class BLogMachine:
    """Simulated N×M B-LOG machine executing one query's OR-tree.

    Each §6 step is written once: :meth:`run`'s ``steal`` is the one
    migration (an idle task's pull and a busy task's D-gated rebalance
    both go through :meth:`MinSeekingNetwork.should_migrate`), its
    ``page_in`` the one SPD page-in (queued on the bank or not), and
    :meth:`_expand` the one expansion cost for every ``cost_model``.

    Parameters
    ----------
    config:
        Topology and costs.
    disk:
        Optional SPD bank holding the linked database; without it,
        expansions pay compute cost only.
    learn:
        Optional §5 hook ``learn(arcs, solved)``, called at once with
        each solution or failure leaf's chain; its logs land in
        :attr:`MachineResult.update_logs`.  A library caller holding only
        a store passes ``functools.partial(apply_outcome, store)`` (the
        paper's rules); the tree passed to :meth:`run` should then use
        that store's ``weight_fn`` for bounds to be meaningful.
    """

    def __init__(
        self,
        config: Optional[MachineConfig] = None,
        disk: Optional[SemanticPagingDisk] = None,
        learn: Optional[Learner] = None,
    ):
        self.config = config if config is not None else MachineConfig()
        self.disk = disk
        self.learn = learn
        self._scoreboard = (
            Scoreboard() if self.config.cost_model != "simple" else None
        )

    # -- cost helpers -------------------------------------------------------------
    def _chain_words(self, depth: int) -> int:
        """Words of a chain at ``depth``: what a migration moves and what
        the scoreboard copies per child."""
        return max(8, self.config.chain_words_per_depth * (depth + 1))

    def _candidates(self, tree: OrTree, goal: Optional[Term]) -> list[int]:
        """The expansion's candidate list, looked up once: the linked
        database's block ids with a disk, else the program's clause ids
        (empty for no goal or an uncallable one)."""
        if goal is None:
            return []
        try:
            if self.disk is not None:
                return self.disk.db.blocks_for(goal.indicator)
            return tree.program.candidates(goal)
        except TypeError:
            return []

    def _expand(self, tree: OrTree, node: OrNode, n_candidates: int) -> tuple[list[int], float]:
        """Expand ``node``; returns its children and the compute cycles
        the cost model charges for the expansion."""
        model = self.config.cost_model
        # the interpreter compiles the node's real expansion, with trial
        # unifications of its own, before the tree expands it
        program = compile_expansion(tree, node.nid) if model == "interpreter" else None
        children = tree.expand(node.nid)
        n = max(1, n_candidates)
        if model == "simple":
            cycles = BASE_EXPAND_CYCLES + PER_CANDIDATE_CYCLES * n
            return children, cycles + PER_CHILD_COPY_CYCLES * len(children)
        if model == "scoreboard":
            program = expansion_program(
                n, len(children), chain_words=self._chain_words(node.depth)
            )
        cycles = float(self._scoreboard.run(program).cycles) if program else BASE_EXPAND_CYCLES
        return children, cycles

    # -- the run --------------------------------------------------------------------
    def run(self, tree: OrTree) -> MachineResult:
        """Execute the query whose (unexpanded) OR-tree is ``tree``."""
        cfg = self.config
        sim = Simulator()
        network = MinSeekingNetwork(cfg.n_processors)
        interconnect = Interconnect()
        procs = [ProcessorState(i, sim, cfg.memory_blocks) for i in range(cfg.n_processors)]
        result = MachineResult()
        state = {
            "open": 0,  # chains in pools
            "busy": 0,  # tasks mid-expansion
            "done": False,
            "limited": False,  # max_expansions ended the run
            "d": cfg.d,  # live migration threshold (adaptive_d mutates it)
        }
        window = {"transfer": 0.0, "compute": 0.0, "idle": 0, "migr": 0, "exp": 0}

        def trace(proc_id: int, task_ix: int, kind: str, info="") -> None:
            if cfg.record_events:
                result.events.append((sim.now, proc_id, task_ix, kind, info))

        def adapt_d() -> None:
            """§6's run-time D controller, applied every adapt_window
            expansions: communication-dominated windows double D,
            idle-dominated cheap-comms windows halve it."""
            if not cfg.adaptive_d:
                return
            window["exp"] += 1
            if window["exp"] < cfg.adapt_window:
                return
            # only D-gated (rebalance) traffic informs the controller;
            # idle pulls happen at any D and would just add noise
            comm_ratio = window["transfer"] / max(1.0, window["compute"])
            if comm_ratio > 0.5:
                state["d"] = min(1e9, max(state["d"], 0.5) * 2.0)
            elif window["idle"] > window["migr"] and comm_ratio < 0.1:
                state["d"] = state["d"] / 2.0
            result.d_trajectory.append(state["d"])
            window.update(transfer=0.0, compute=0.0, idle=0, migr=0, exp=0)
        work_signal = sim.signal("work")
        disk_bank = (
            sim.resource(max(1, self.disk.n_sps), "spd-bank")
            if self.disk is not None and cfg.model_disk_contention
            else None
        )

        def publish(proc: ProcessorState) -> None:
            network.publish(proc.proc_id, proc.peek_min())

        def finish() -> None:
            if not state["done"]:
                state["done"] = True
                work_signal.fire()

        def check_quiescent() -> bool:
            """Finish once no chain is open or mid-expansion; True if so."""
            quiet = state["open"] == 0 and state["busy"] == 0
            if quiet:
                finish()
            return quiet

        def handle_outcome(nid: int, solved: bool) -> None:
            node = tree.node(nid)
            if solved:
                result.answers.append(tree.solution_answer(node))
                result.solution_bounds.append(node.bound)
            else:
                result.failures += 1
            if self.learn is not None:
                result.update_logs.append(self.learn(tree.chain_arcs(nid), solved))
            limit = cfg.max_solutions
            if solved and limit is not None and len(result.answers) >= limit:
                finish()

        def steal(local_min: float) -> Optional[tuple[float, int, float]]:
            """§6's migration: when the network's minimum is D lower than
            ``local_min``, take that chain from its owner.  Returns its
            (bound, node id, transfer cycles), or None to stay local.  A
            published finite minimum always has a chain behind it: every
            pop republishes at once."""
            migrate, owner = network.should_migrate(local_min, state["d"])
            if not migrate:
                return None
            victim = procs[owner]
            bound, nid = victim.pop_min()
            publish(victim)
            result.migrations += 1
            return bound, nid, interconnect.transfer(self._chain_words(tree.node(nid).depth))

        def page_in(proc: ProcessorState, blocks: list[int]):
            """Disk wait to bring the candidate blocks into ``proc``'s
            local memory (the pipeline is free meanwhile: other tasks on
            the processor compute).  With contention modeled, the request
            first queues for a free search processor in the SPD bank."""
            if self.disk is None:
                return
            if disk_bank is not None:
                yield Acquire(disk_bank)
            try:
                missing = [b for b in blocks if not proc.memory.touch(b)]
                if missing:
                    page = self.disk.page_in(missing, radius=PAGE_RADIUS)
                    proc.memory.insert_many(page.blocks)
                    result.disk_cycles += page.cycles
                    if page.cycles > 0:
                        yield Timeout(page.cycles)
            finally:
                if disk_bank is not None:
                    disk_bank.release()

        def task(proc: ProcessorState, task_ix: int):
            while not state["done"]:
                popped = proc.pop_min()
                if popped is None:
                    # an empty pool pulls the network's minimum at any D
                    yield Timeout(network.query_latency)
                    got = steal(INF)
                    if got is not None:
                        bound, nid, cost = got
                        result.idle_pulls += 1
                        # idle pulls are D-independent: they don't
                        # inform the adaptive-D controller
                        yield Timeout(cost)
                        proc.push(bound, nid)
                        publish(proc)
                        trace(proc.proc_id, task_ix, "idle-pull", nid)
                        continue
                    if check_quiescent():
                        return
                    window["idle"] += 1
                    yield WaitSignal(work_signal)
                    continue
                bound, nid = popped
                publish(proc)
                trace(proc.proc_id, task_ix, "pop", nid)
                # a non-empty pool fetches the network's minimum instead
                # only when it is D lower than the chain just popped
                got = steal(bound)
                if got is not None:
                    rbound, rnid, cost = got
                    result.rebalances += 1
                    window["migr"] += 1
                    window["transfer"] += cost
                    # keep our original chain in the pool
                    proc.push(bound, nid)
                    yield Timeout(cost)
                    bound, nid = rbound, rnid
                    publish(proc)
                    trace(proc.proc_id, task_ix, "rebalance", nid)
                state["open"] -= 1
                state["busy"] += 1
                node = tree.node(nid)
                if node.status is NodeStatus.SOLUTION:
                    handle_outcome(nid, True)
                    trace(proc.proc_id, task_ix, "solution", nid)
                    state["busy"] -= 1
                    check_quiescent()
                    continue
                candidates = self._candidates(tree, node.selected_goal)
                yield from page_in(proc, candidates)
                if state["done"]:
                    state["busy"] -= 1
                    state["open"] += 1  # the chain stays unexplored
                    return
                # compute: hold the processor pipeline
                yield Acquire(proc.pipeline)
                try:
                    cutoffs = tree.depth_cutoffs
                    children, cycles = self._expand(tree, node, len(candidates))
                    cut_off = tree.depth_cutoffs != cutoffs
                    proc.stats.expansions += 1
                    result.expansions += 1
                    proc.stats.compute_cycles += cycles
                    window["compute"] += cycles
                    adapt_d()
                    trace(proc.proc_id, task_ix, "expand", nid)
                    yield Timeout(cycles)
                finally:
                    proc.pipeline.release()
                if cut_off:
                    result.depth_cutoffs += 1
                    result.complete = False
                    trace(proc.proc_id, task_ix, "cutoff", nid)
                elif not children:
                    handle_outcome(nid, False)
                    trace(proc.proc_id, task_ix, "failure", nid)
                else:
                    for cid in children:
                        proc.push(tree.node(cid).bound, cid)
                    state["open"] += len(children)
                    publish(proc)
                    work_signal.fire()
                state["busy"] -= 1
                if result.expansions >= cfg.max_expansions:
                    # the limit ended the run unless max_solutions already had
                    state["limited"] = state["limited"] or not state["done"]
                    finish()
                    return
                check_quiescent()

        # seed: the query goes to processor 0
        procs[0].push(tree.root.bound, tree.root.nid)
        state["open"] = 1
        publish(procs[0])
        for proc in procs:
            for t in range(cfg.tasks_per_processor):
                sim.spawn(task(proc, t), name=f"p{proc.proc_id}t{t}")
        sim.run()
        result.makespan = sim.now
        if state["limited"] and (state["open"] or state["busy"]):
            result.complete = False
        result.final_d = state["d"]
        result.per_processor_expansions = [p.stats.expansions for p in procs]
        result.per_processor_utilization = [
            (p.stats.compute_cycles / sim.now if sim.now > 0 else 0.0) for p in procs
        ]
        result.network_words_moved = interconnect.stats.words_moved
        result.network_transfers = interconnect.stats.transfers
        hits = sum(p.memory.hits for p in procs)
        misses = sum(p.memory.misses for p in procs)
        result.local_memory_hit_rate = hits / (hits + misses) if hits + misses else 0.0
        return result
