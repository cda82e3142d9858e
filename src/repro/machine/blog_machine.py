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
from ..ortree.tree import NodeStatus, OrTree
from ..spd.ops import SemanticPagingDisk
from ..weights.update import Learner, UpdateLog
from .network import Interconnect, MinSeekingNetwork
from .processor import INF, ProcessorState
from .scoreboard import Scoreboard, expansion_program
from .sim import Acquire, Simulator, Timeout, WaitSignal

__all__ = ["MachineConfig", "MachineResult", "BLogMachine"]


@dataclass
class MachineConfig:
    """Cost and topology knobs of the simulated machine."""

    n_processors: int = 4
    tasks_per_processor: int = 2
    d: float = 4.0  # migration threshold (§6); initial value when adaptive
    adaptive_d: bool = False  # §6: "D can be modified at run time, based
    # on the measured communication overhead" — a multiplicative
    # controller raises D when transfer cycles dominate compute in the
    # last window and lowers it when processors idle with cheap comms
    adapt_window: int = 16  # expansions between controller updates
    memory_blocks: int = 64  # local memory capacity per processor
    base_expand_cycles: float = 10.0
    per_candidate_cycles: float = 4.0
    per_child_copy_cycles: float = 6.0
    chain_words_per_depth: int = 8  # chain size grows with depth
    page_radius: int = 1  # semantic page Hamming distance
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
    def _expansion_cycles(self, n_candidates: int, n_children: int, depth: int) -> float:
        cfg = self.config
        chain_words = max(8, cfg.chain_words_per_depth * (depth + 1))
        if cfg.cost_model == "scoreboard":
            program = expansion_program(
                max(1, n_candidates), n_children, chain_words=chain_words
            )
            return float(self._scoreboard.run(program).cycles)
        return (
            cfg.base_expand_cycles
            + cfg.per_candidate_cycles * max(1, n_candidates)
            + cfg.per_child_copy_cycles * n_children
        )

    def _interpreter_cycles(self, tree: OrTree, nid: int) -> Optional[float]:
        """Interpreter cost model: compile the node's real expansion to
        micro-ops and run it on the scoreboard.  Must be called BEFORE
        ``tree.expand`` (it performs its own trial unifications)."""
        if self.config.cost_model != "interpreter":
            return None
        from .interpreter import compile_expansion

        program = compile_expansion(tree, nid)
        if not program:
            return self.config.base_expand_cycles
        return float(self._scoreboard.run(program).cycles)

    def _chain_words(self, depth: int) -> int:
        return max(8, self.config.chain_words_per_depth * (depth + 1))

    # -- the run --------------------------------------------------------------------
    def run(self, tree: OrTree) -> MachineResult:
        """Execute the query whose (unexpanded) OR-tree is ``tree``."""
        cfg = self.config
        sim = Simulator()
        network = MinSeekingNetwork(cfg.n_processors)
        interconnect = Interconnect()
        procs = [
            ProcessorState(i, sim, cfg.memory_blocks, cfg.tasks_per_processor)
            for i in range(cfg.n_processors)
        ]
        result = MachineResult()
        state = {
            "open": 0,  # chains in pools
            "busy": 0,  # tasks mid-expansion
            "done": False,
            "limited": False,  # max_expansions ended the run
            "solutions": 0,
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
        done_signal = sim.signal("done")
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
                done_signal.fire()
                work_signal.fire()

        def check_quiescent() -> None:
            if state["open"] == 0 and state["busy"] == 0:
                finish()

        def handle_outcome(nid: int, solved: bool) -> None:
            node = tree.node(nid)
            if solved:
                result.answers.append(tree.solution_answer(node))
                result.solution_bounds.append(node.bound)
                state["solutions"] += 1
            else:
                result.failures += 1
            if self.learn is not None:
                result.update_logs.append(self.learn(tree.chain_arcs(nid), solved))
            if solved and cfg.max_solutions is not None and state["solutions"] >= cfg.max_solutions:
                finish()

        def page_cost_for(node) -> float:
            """Disk cycles to bring the candidate blocks into local memory."""
            if self.disk is None:
                return 0.0
            goal = node.selected_goal
            if goal is None:
                return 0.0
            try:
                ind = goal.indicator
            except TypeError:
                return 0.0
            block_ids = self.disk.db.blocks_for(ind)
            proc = procs[node_owner[node.nid]]
            missing = [b for b in block_ids if not proc.memory.touch(b)]
            if not missing:
                return 0.0
            page = self.disk.page_in(missing, radius=cfg.page_radius)
            proc.memory.insert_many(page.blocks)
            result.disk_cycles += page.cycles
            return page.cycles

        node_owner: dict[int, int] = {}

        def task(proc: ProcessorState, task_ix: int):
            while True:
                if state["done"]:
                    return
                popped = proc.pop_min()
                if popped is None:
                    # try to acquire remote work through the network
                    yield Timeout(network.query_latency)
                    migrate, owner = network.should_migrate(INF, state["d"])
                    if migrate and owner is not None and procs[owner].pool:
                        victim = procs[owner]
                        got = victim.pop_min()
                        publish(victim)
                        if got is not None:
                            bound, nid = got
                            words = self._chain_words(tree.node(nid).depth)
                            cost = interconnect.transfer(words)
                            victim.stats.migrations_out += 1
                            proc.stats.migrations_in += 1
                            result.migrations += 1
                            result.idle_pulls += 1
                            # idle pulls are D-independent: they don't
                            # inform the adaptive-D controller
                            yield Timeout(cost)
                            proc.push(bound, nid)
                            publish(proc)
                            trace(proc.proc_id, task_ix, "idle-pull", nid)
                            continue
                    if state["open"] == 0 and state["busy"] == 0:
                        finish()
                        return
                    proc.stats.network_waits += 1
                    window["idle"] += 1
                    yield WaitSignal(work_signal)
                    continue
                bound, nid = popped
                publish(proc)
                trace(proc.proc_id, task_ix, "pop", nid)
                # §6 rule for a *non-empty* pool: if the global min is D
                # lower than our local min, fetch it instead.
                gmin, owner = network.global_min()
                if (
                    owner is not None
                    and owner != proc.proc_id
                    and gmin < bound - state["d"]
                    and procs[owner].pool
                ):
                    victim = procs[owner]
                    got = victim.pop_min()
                    publish(victim)
                    if got is not None:
                        rbound, rnid = got
                        words = self._chain_words(tree.node(rnid).depth)
                        cost = interconnect.transfer(words)
                        victim.stats.migrations_out += 1
                        proc.stats.migrations_in += 1
                        result.migrations += 1
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
                node_owner[nid] = proc.proc_id
                node = tree.node(nid)
                if node.status is NodeStatus.SOLUTION:
                    handle_outcome(nid, True)
                    trace(proc.proc_id, task_ix, "solution", nid)
                    state["busy"] -= 1
                    check_quiescent()
                    continue
                # page in candidate blocks (disk wait; pipeline released —
                # other tasks on this processor compute meanwhile).  With
                # contention modeled, the request first queues for a free
                # search processor in the SPD bank.
                if disk_bank is not None:
                    yield Acquire(disk_bank)
                    try:
                        disk_cycles = page_cost_for(node)
                        if disk_cycles > 0:
                            proc.stats.disk_wait_cycles += disk_cycles
                            yield Timeout(disk_cycles)
                    finally:
                        disk_bank.release()
                else:
                    disk_cycles = page_cost_for(node)
                    if disk_cycles > 0:
                        proc.stats.disk_wait_cycles += disk_cycles
                        yield Timeout(disk_cycles)
                if state["done"]:
                    state["busy"] -= 1
                    state["open"] += 1  # the chain stays unexplored
                    return
                # compute: hold the processor pipeline
                yield Acquire(proc.pipeline)
                try:
                    goal = node.selected_goal
                    n_cand = 0
                    if goal is not None:
                        try:
                            n_cand = len(self.disk.db.blocks_for(goal.indicator)) if self.disk else len(tree.program.candidates(goal))
                        except TypeError:
                            n_cand = 1
                    interp_cycles = self._interpreter_cycles(tree, nid)
                    cutoffs = tree.depth_cutoffs
                    children = tree.expand(nid)
                    cut_off = tree.depth_cutoffs != cutoffs
                    proc.stats.expansions += 1
                    result.expansions += 1
                    cycles = (
                        interp_cycles
                        if interp_cycles is not None
                        else self._expansion_cycles(n_cand, len(children), node.depth)
                    )
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
                    pushed = 0
                    for cid in children:
                        child = tree.node(cid)
                        proc.push(child.bound, cid)
                        pushed += 1
                    state["open"] += pushed
                    publish(proc)
                    if pushed:
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
