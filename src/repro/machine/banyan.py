"""A banyan (Omega) interconnection network (§6's closing proposal).

"A linear cost non-rectangular banyan can implement these mechanisms
[the minimum circuit and the priority circuit], and this is another of
our current subjects of research."

A banyan gives exactly one path between each input/output pair through
``log2 n`` stages of 2×2 switches — ``(n/2)·log2 n`` switches total
(the "linear cost" vs a crossbar's n²).  The price is **blocking**: two
packets whose unique paths need the same switch output conflict.  This
module implements a functional Omega network:

* :func:`omega_route` — the destination-tag route of one packet;
* :meth:`BanyanNetwork.route_permutation` — route a batch, counting
  conflicts (one extra pass per conflicting packet, the usual
  store-and-retry model);
* Monte-Carlo blocking statistics vs the crossbar baseline — E10's
  interconnect-cost row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = ["BanyanNetwork", "omega_route", "crossbar_cost"]


def _is_pow2(n: int) -> bool:
    return n >= 2 and (n & (n - 1)) == 0


def omega_route(n: int, src: int, dst: int) -> list[tuple[int, int]]:
    """The (stage, switch-output-port) path of a packet in an n-input
    Omega network, using destination-tag routing."""
    if not _is_pow2(n):
        raise ValueError("omega network size must be a power of two")
    stages = int(math.log2(n))
    path: list[tuple[int, int]] = []
    cur = src
    for s in range(stages):
        # perfect shuffle, then switch by the s-th destination bit
        cur = ((cur << 1) | (cur >> (stages - 1))) & (n - 1)
        bit = (dst >> (stages - 1 - s)) & 1
        cur = (cur & ~1) | bit
        path.append((s, cur))
    return path


@dataclass
class BanyanStats:
    packets: int = 0
    conflicts: int = 0

    @property
    def conflict_rate(self) -> float:
        return self.conflicts / self.packets if self.packets else 0.0


@dataclass
class BanyanNetwork:
    """An n-input Omega network with conflict accounting."""

    n: int
    stats: BanyanStats = field(default_factory=BanyanStats)

    def __post_init__(self) -> None:
        if not _is_pow2(self.n):
            raise ValueError("network size must be a power of two >= 2")

    @property
    def stages(self) -> int:
        return int(math.log2(self.n))

    @property
    def switch_count(self) -> int:
        """(n/2)·log2 n — the 'linear cost' §6 cites (vs crossbar n²)."""
        return (self.n // 2) * self.stages

    def route_permutation(self, dests: Sequence[int]) -> int:
        """Route packet i -> dests[i] for all i; returns passes needed.

        Conflicting packets (same switch output in the same stage during
        the same pass) are deferred to the next pass — the blocking cost
        a crossbar never pays.
        """
        if len(dests) != self.n:
            raise ValueError("need one destination per input")
        pending = list(range(self.n))
        passes = 0
        while pending:
            passes += 1
            taken: set[tuple[int, int]] = set()
            deferred: list[int] = []
            for src in pending:
                path = omega_route(self.n, src, dests[src])
                if any(hop in taken for hop in path):
                    deferred.append(src)
                    self.stats.conflicts += 1
                else:
                    taken.update(path)
                    self.stats.packets += 1
            pending = deferred
        return passes

    def blocking_monte_carlo(self, trials: int = 100, seed: int = 0) -> dict:
        """Mean passes/conflicts over random permutations."""
        rng = np.random.default_rng(seed)
        passes = []
        for _ in range(trials):
            perm = rng.permutation(self.n)
            net = BanyanNetwork(self.n)
            passes.append(net.route_permutation(list(perm)))
        return {
            "inputs": self.n,
            "switches": self.switch_count,
            "mean_passes": float(np.mean(passes)),
            "max_passes": int(np.max(passes)),
        }


def crossbar_cost(n: int) -> dict:
    """The non-blocking alternative: n² crosspoints, always 1 pass."""
    return {"inputs": n, "switches": n * n, "mean_passes": 1.0, "max_passes": 1}
