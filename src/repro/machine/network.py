"""Interconnection network models (§6): minimum-seeking tree, priority
arbiter, and the packet-setup/circuit-transfer interconnect.

"A circuit that determines the minimum, and a priority circuit to
arbitrate among several waiting processors [...] would be adequate.
[One] is a tree where each node selects the minimum of its descendants
and passes that to its parent."  Traffic follows the CEDAR style:
"packet switching to find paths, and circuit switching to move the
data."

The migration rule: "We choose a value D, which reflects the
communication cost of moving a chain.  If the minimum over the network
is D lower than the minimum of the tasks in a processor, the freed task
would acquire the chain through the network, else it would work on the
minimum chain given by some task in its own processor."
:meth:`MinSeekingNetwork.should_migrate` implements exactly that test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

__all__ = ["NetworkStats", "MinSeekingNetwork", "Interconnect"]

INF = float("inf")


@dataclass
class NetworkStats:
    grants: int = 0
    arbitrations: int = 0
    transfers: int = 0
    words_moved: int = 0
    transfer_cycles: float = 0.0
    migrations_accepted: int = 0
    migrations_declined: int = 0


class MinSeekingNetwork:
    """Tree minimum circuit over per-processor best bounds.

    Each processor publishes the minimum bound of its unexpanded
    chains (``INF`` when it has none).  ``global_min`` propagates up a
    binary tree in ``ceil(log2(n))`` gate levels — the latency charged
    per query.  ``arbitrate`` grants the minimum to exactly one of the
    requesting processors (priority = lowest processor index, a
    carry-lookahead-style priority circuit).
    """

    def __init__(self, n_processors: int):
        if n_processors < 1:
            raise ValueError("need at least one processor")
        self.n = n_processors
        self.published: list[float] = [INF] * n_processors
        self.stats = NetworkStats()

    @property
    def query_latency(self) -> int:
        """Gate levels to propagate the min to the root."""
        return max(1, math.ceil(math.log2(self.n))) if self.n > 1 else 1

    def publish(self, processor: int, best_bound: float) -> None:
        """Processor announces the min bound of its open chains."""
        self.published[processor] = best_bound

    def global_min(self) -> tuple[float, Optional[int]]:
        """The minimum published bound and its owner (None if all idle)."""
        best = INF
        owner: Optional[int] = None
        for i, b in enumerate(self.published):
            if b < best:
                best = b
                owner = i
        return best, owner

    def should_migrate(self, local_min: float, d: float) -> tuple[bool, Optional[int]]:
        """The §6 rule: migrate iff global min < local min − D.

        Returns (migrate?, source processor).  A processor with no
        local work (``local_min`` = INF) migrates whenever any work
        exists anywhere.
        """
        gmin, owner = self.global_min()
        if owner is None:
            return False, None
        if gmin < local_min - d:
            self.stats.migrations_accepted += 1
            return True, owner
        self.stats.migrations_declined += 1
        return False, None

    def arbitrate(self, requesters: Sequence[int]) -> Optional[int]:
        """Grant to the highest-priority (lowest-index) requester."""
        self.stats.arbitrations += 1
        if not requesters:
            return None
        winner = min(requesters)
        self.stats.grants += 1
        return winner


class Interconnect:
    """Packet-setup + circuit-switched data movement cost model.

    ``transfer(words)`` costs ``packet_setup`` cycles to find the path
    (packet switching) plus ``words / words_per_cycle`` to stream the
    chain (circuit switching).  All traffic is counted for the E6
    sweep.
    """

    def __init__(self, packet_setup: float = 8.0, words_per_cycle: float = 2.0):
        if packet_setup < 0 or words_per_cycle <= 0:
            raise ValueError("bad interconnect parameters")
        self.packet_setup = packet_setup
        self.words_per_cycle = words_per_cycle
        self.stats = NetworkStats()

    def transfer_cost(self, words: int) -> float:
        return self.packet_setup + words / self.words_per_cycle

    def transfer(self, words: int) -> float:
        """Account a transfer; returns its latency in cycles."""
        cost = self.transfer_cost(words)
        self.stats.transfers += 1
        self.stats.words_moved += words
        self.stats.transfer_cycles += cost
        return cost
