"""Map coloring — the deterministic-conjunction workload for §7.

Coloring adjacent regions with ``\\=`` constraints gives conjunctions
whose goals *share* variables (the hard AND-parallel case) alongside
independent color-generator goals (the easy case); E8 measures the
independence detector and join plans on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..logic.program import Program

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["MapInstance", "map_coloring_program", "AUSTRALIA"]

# the classic 7-region Australia instance (adjacency pairs)
AUSTRALIA = [
    ("wa", "nt"),
    ("wa", "sa"),
    ("nt", "sa"),
    ("nt", "q"),
    ("sa", "q"),
    ("sa", "nsw"),
    ("sa", "v"),
    ("q", "nsw"),
    ("nsw", "v"),
]


@dataclass
class MapInstance:
    """A coloring workload: program + adjacency graph + query."""

    program: Program
    source: str
    graph: "nx.Graph"
    regions: list[str]
    colors: list[str]
    query: str


def map_coloring_program(
    adjacency: list[tuple[str, str]] | None = None,
    colors: list[str] | None = None,
) -> MapInstance:
    """Build the coloring program for an adjacency list.

    ``coloring(R1, ..., Rk)`` succeeds with one color variable per
    region; the body generates colors (independent goals) and checks
    every adjacency with ``\\=`` (shared-variable goals).
    """
    import networkx as nx

    adjacency = adjacency if adjacency is not None else AUSTRALIA
    colors = colors if colors is not None else ["red", "green", "blue"]
    g = nx.Graph()
    g.add_edges_from(adjacency)
    regions = sorted(g.nodes)
    var_of = {r: r.upper() for r in regions}
    color_facts = "\n".join(f"color({c})." for c in colors)
    gen_goals = [f"color({var_of[r]})" for r in regions]
    check_goals = [f"{var_of[a]} \\= {var_of[b]}" for a, b in adjacency]
    head = f"coloring({', '.join(var_of[r] for r in regions)})"
    body = ", ".join(gen_goals + check_goals)
    source = f"{color_facts}\n{head} :- {body}.\n"
    query = f"coloring({', '.join(var_of[r] for r in regions)})"
    return MapInstance(
        program=Program.from_source(source),
        source=source,
        graph=g,
        regions=regions,
        colors=colors,
        query=query,
    )
