"""Structure sharing vs copying — the §6 memory-representation trade.

"A multitasked processor will spend a lot of time copying data [...]
This is a consequence of the very peculiar character of the logic
variable, since most structure sharing schemes are difficult to
implement in parallel [16]."  ([16] is D.S. Warren on Prolog memory
management under flexible control.)

The paper's machine uses *copying*: every child gets its whole
resolvent written out (the model count ``tree.words_copied``; the
software tree itself resolves its goals on demand).  The classic
alternative is
*structure sharing* (Boyer–Moore molecules): a child stores only a
pointer to the clause skeleton plus a binding frame for the clause's
variables, and every term access dereferences through the frame chain
back toward the root.

:func:`representation_costs` prices both models on a developed tree:

* **memory** — copying pays the materialized resolvent words per node;
  sharing pays ``frame = |clause vars| + 2`` words per node (skeleton
  pointer + parent-environment pointer + one cell per variable);
* **access** — reading a term during expansion costs 1 touch per symbol
  under copying, but under sharing each variable occurrence chases an
  environment chain whose expected length grows with node depth — the
  serial pointer-walk that makes sharing "difficult to implement in
  parallel" (every processor's accesses contend on ancestor frames).

This quantifies why the paper chooses copying plus a multiply-write
memory rather than sharing (E15).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..logic.terms import term_size, term_vars
from .tree import NodeStatus, OrTree, QUERY_CLAUSE_ID

__all__ = ["RepresentationCosts", "representation_costs"]


@dataclass
class RepresentationCosts:
    """Aggregate memory/access costs of one developed tree, both models."""

    nodes: int = 0
    copy_memory_words: int = 0
    share_memory_words: int = 0
    copy_access_touches: int = 0
    share_access_touches: int = 0
    shared_frame_cells: int = 0  # ancestor frame cells reachable (contention)

    @property
    def memory_ratio(self) -> float:
        """copy / share — how much memory sharing saves."""
        if self.share_memory_words == 0:
            return 1.0
        return self.copy_memory_words / self.share_memory_words

    @property
    def access_ratio(self) -> float:
        """share / copy — how much dereference work sharing adds."""
        if self.copy_access_touches == 0:
            return 1.0
        return self.share_access_touches / self.copy_access_touches


def representation_costs(tree: OrTree) -> RepresentationCosts:
    """Price a developed tree under both term representations."""
    costs = RepresentationCosts()
    program = tree.program
    for node in tree.nodes:
        if node.parent is None:
            continue
        costs.nodes += 1
        resolvent_words = sum(term_size(g) for g in node.goals) + sum(
            term_size(a) for a in node.answer
        )
        # ---- copying: materialize the resolvent; access is direct
        costs.copy_memory_words += resolvent_words
        costs.copy_access_touches += resolvent_words
        # ---- sharing: skeleton ptr + env ptr + a cell per clause var
        arc = node.arc
        n_vars = 0
        if arc is not None and arc.key.kind == "pointer":
            caller, _lit, callee = arc.key.key
            if callee != QUERY_CLAUSE_ID:
                clause = program.clause(callee)
                seen = {
                    v.id
                    for t in (clause.head, *clause.body)
                    for v in term_vars(t)
                }
                n_vars = len(seen)
        frame = n_vars + 2
        costs.share_memory_words += frame
        costs.shared_frame_cells += frame * max(0, node.depth - 1)
        # every variable occurrence dereferences an env chain whose
        # expected length is ~ depth/2 (bindings arrive along the chain)
        var_occurrences = max(1, resolvent_words // 3)
        chain = max(1, node.depth // 2)
        costs.share_access_touches += resolvent_words + var_occurrences * chain
    return costs
