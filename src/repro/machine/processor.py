"""Processor state for the simulated B-LOG machine (§6).

"Each of N processors has the capability of supporting M tasks at the
same time.  Each processor keeps track of the weights of the chains it
has found and is able to send the minimum bound into a minimum seeking
network."

A :class:`ProcessorState` owns:

* a **chain pool** — the open OR-tree nodes this processor holds,
  ordered by bound (a heap);
* a **local memory** — an LRU set of database block ids paged in from
  the SPDs ("processors with local memories, which contain copies of
  small subsets of the global graph");
* one **compute resource** of capacity 1 — the M tasks multiplex on a
  single execution pipeline, which is exactly how multitasking hides
  disk latency: while one task waits on a page-in, another task holds
  the pipeline.

Each processor counts its expansions and compute-busy cycles, from
which E5 reports utilization.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from .sim import Resource, Simulator

__all__ = ["LocalMemory", "ProcessorState"]

INF = float("inf")


class LocalMemory:
    """LRU cache of database block ids held in processor memory."""

    def __init__(self, capacity_blocks: int = 64):
        if capacity_blocks < 1:
            raise ValueError("local memory needs at least one block")
        self.capacity = capacity_blocks
        self._blocks: OrderedDict[int, None] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __contains__(self, block_id: int) -> bool:
        return block_id in self._blocks

    def __len__(self) -> int:
        return len(self._blocks)

    def touch(self, block_id: int) -> bool:
        """Access a block; True on hit.  Misses must be followed by
        :meth:`insert` once the page-in completes."""
        if block_id in self._blocks:
            self._blocks.move_to_end(block_id)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def insert(self, block_id: int) -> None:
        self._blocks[block_id] = None
        self._blocks.move_to_end(block_id)
        while len(self._blocks) > self.capacity:
            self._blocks.popitem(last=False)

    def insert_many(self, block_ids) -> None:
        for b in block_ids:
            self.insert(b)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass
class ProcessorStats:
    expansions: int = 0
    compute_cycles: float = 0.0


class ProcessorState:
    """One processor of the B-LOG machine: chain pool + local memory +
    a single compute pipeline shared by its M tasks."""

    def __init__(self, proc_id: int, sim: Simulator, memory_blocks: int = 64):
        self.proc_id = proc_id
        self.pool: list[tuple[float, int, int]] = []  # (bound, seq, node id)
        self._seq = 0
        self.memory = LocalMemory(memory_blocks)
        self.pipeline: Resource = sim.resource(1, f"cpu{proc_id}")
        self.stats = ProcessorStats()

    # -- chain pool --------------------------------------------------------------
    def push(self, bound: float, nid: int) -> None:
        heapq.heappush(self.pool, (bound, self._seq, nid))
        self._seq += 1

    def pop_min(self) -> Optional[tuple[float, int]]:
        """Remove and return (bound, node id) of the best local chain."""
        if not self.pool:
            return None
        bound, _, nid = heapq.heappop(self.pool)
        return bound, nid

    def peek_min(self) -> float:
        """Best local bound (INF when the pool is empty) — the value the
        processor publishes to the minimum-seeking network."""
        return self.pool[0][0] if self.pool else INF

    def __len__(self) -> int:
        return len(self.pool)
