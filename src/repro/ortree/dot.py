"""Graphviz DOT export of OR-trees (figure-3-style diagrams).

``to_dot(tree)`` renders the developed tree with solution/failure
coloring and arc weights — paste into any Graphviz viewer to get the
paper's figure 3 for arbitrary queries.  ``to_networkx`` gives the same
structure as a graph object for programmatic analysis.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .tree import NodeStatus, OrTree

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["to_dot", "to_networkx"]


def _label(node, max_len: int = 40) -> str:
    text = ", ".join(str(g) for g in node.goals) if node.goals else "□"
    if len(text) > max_len:
        text = text[: max_len - 3] + "..."
    return text.replace('"', "'")


_STYLE = {
    NodeStatus.SOLUTION: 'fillcolor="palegreen", style=filled',
    NodeStatus.FAILURE: 'fillcolor="lightcoral", style=filled',
    NodeStatus.OPEN: 'fillcolor="lightyellow", style=filled',
    NodeStatus.EXPANDED: "",
}


def to_dot(tree: OrTree, title: str = "OR-tree") -> str:
    """Render the tree as a Graphviz DOT digraph."""
    lines = [
        "digraph ortree {",
        f'  label="{title}";',
        "  node [shape=box, fontsize=10];",
    ]
    for node in tree.nodes:
        style = _STYLE.get(node.status, "")
        extra = f", {style}" if style else ""
        lines.append(
            f'  n{node.nid} [label="{_label(node)}\\nbound={node.bound:g}"{extra}];'
        )
    for arc in tree.arcs:
        weight = f"{arc.weight:g}" if arc.weight else ""
        lines.append(f'  n{arc.parent} -> n{arc.child} [label="{weight}"];')
    lines.append("}")
    return "\n".join(lines)


def to_networkx(tree: OrTree) -> "nx.DiGraph":
    """The tree as a networkx digraph with node/arc attributes."""
    import networkx as nx

    g = nx.DiGraph()
    for node in tree.nodes:
        g.add_node(
            node.nid,
            label=_label(node),
            status=node.status.value,
            bound=node.bound,
            depth=node.depth,
        )
    for arc in tree.arcs:
        g.add_edge(arc.parent, arc.child, weight=arc.weight, key=str(arc.key))
    return g
