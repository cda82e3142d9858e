"""Graph-reachability workloads: edge facts + path rules.

Reachability over random digraphs exercises deep recursion and shared
substructure (the same ``path`` arc reached along many chains — the
weight-sharing requirement 1 of §4), and grid graphs give controllable
diameter for depth-bound experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..logic.program import Program

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["GraphInstance", "random_digraph_program", "grid_program"]

PATH_RULES = """\
path(X,Y) :- edge(X,Y).
path(X,Z) :- edge(X,Y), path(Y,Z).
"""


@dataclass
class GraphInstance:
    """A graph workload: program + the underlying networkx graph."""

    program: Program
    source: str
    graph: "nx.DiGraph"

    def reachable_from(self, node: str) -> set[str]:
        """Ground truth via networkx (oracle for tests)."""
        import networkx as nx

        return set(nx.descendants(self.graph, node))


def random_digraph_program(
    n_nodes: int = 12, edge_prob: float = 0.2, seed: int = 0, acyclic: bool = True
) -> GraphInstance:
    """A random digraph with ``path/2`` rules.

    ``acyclic`` keeps the program terminating under plain depth-first
    search (edges only go from lower to higher node index); cyclic
    instances exercise the engine's depth bound instead.
    """
    import networkx as nx

    rng = np.random.default_rng(seed)
    g = nx.DiGraph()
    names = [f"n{i}" for i in range(n_nodes)]
    g.add_nodes_from(names)
    facts = []
    for i in range(n_nodes):
        for j in range(n_nodes):
            if i == j:
                continue
            if acyclic and j <= i:
                continue
            if rng.random() < edge_prob:
                g.add_edge(names[i], names[j])
                facts.append(f"edge({names[i]},{names[j]}).")
    source = PATH_RULES + "\n".join(facts) + "\n"
    return GraphInstance(Program.from_source(source), source, g)


def grid_program(width: int = 4, height: int = 4) -> GraphInstance:
    """A directed grid (right/down moves): diameter = width+height-2."""
    import networkx as nx

    g = nx.DiGraph()
    facts = []

    def name(x: int, y: int) -> str:
        return f"c{x}_{y}"

    for x in range(width):
        for y in range(height):
            g.add_node(name(x, y))
            if x + 1 < width:
                g.add_edge(name(x, y), name(x + 1, y))
                facts.append(f"edge({name(x, y)},{name(x + 1, y)}).")
            if y + 1 < height:
                g.add_edge(name(x, y), name(x, y + 1))
                facts.append(f"edge({name(x, y)},{name(x, y + 1)}).")
    source = PATH_RULES + "\n".join(facts) + "\n"
    return GraphInstance(Program.from_source(source), source, g)
