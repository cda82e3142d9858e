"""Building and maintaining the linked database (figure 4).

:class:`LinkedDatabase` materializes a :class:`~repro.logic.program.Program`
into blocks + named weighted pointers, keeps them consistent under
clause insertion ("The updating process for this data structure will be
similar to the updating process for inverted files"), and syncs pointer
weights with a :class:`~repro.weights.store.WeightStore`.

Block ids equal clause ids, so pointer arc keys ``("pointer",
(caller_block, literal_index, callee_block))`` coincide with the
OR-tree's pointer arc keys — the tree and the physical database agree
on weight identities by construction.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Iterator, Optional

from ..logic.parser import Clause
from ..logic.program import Program
from ..logic.terms import Atom, Struct, Term
from ..ortree.tree import ArcKey
from ..weights.store import WeightStore
from .blocks import Block, NamedPointer

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["LinkedDatabase", "fact_graph"]


class LinkedDatabase:
    """The physical clause store: blocks with named weighted pointers.

    Parameters
    ----------
    program:
        Logical clause source; block ids mirror its clause ids.
    store:
        Weight store supplying pointer weights.  When omitted, a fresh
        default store is created (all pointers UNKNOWN at N+1).
    """

    def __init__(self, program: Program, store: Optional[WeightStore] = None):
        self.program = program
        # explicit None check: an empty WeightStore is falsy (len 0)
        self.store = WeightStore() if store is None else store
        self.blocks: list[Block] = []
        self._heads: dict[tuple[str, int], list[int]] = defaultdict(list)
        self.rebuild()

    # -- construction / maintenance -------------------------------------------
    def rebuild(self) -> None:
        """(Re)build all blocks and pointers from the program.

        Retracted clauses leave *dead* block slots (ids stay stable, the
        figure-4 invariant), excluded from iteration, heads and wiring;
        ``SemanticPagingDisk.compact()`` reclaims them on disk.
        """
        live = set(self.program.clause_ids())
        total = (max(live) + 1) if live else 0
        self.dead: set[int] = set(range(total)) - live
        self.blocks = []
        self._heads = defaultdict(list)
        for cid in range(total):
            clause = self.program.clause(cid)  # retracted text retained
            self.blocks.append(Block(block_id=cid, clause=clause))
            if cid in live:
                self._heads[clause.indicator].append(cid)
        for block in self.blocks:
            if block.block_id in self.dead:
                block.pointers = []
            else:
                self._wire_block(block)

    def _wire_block(self, block: Block) -> None:
        block.pointers = []
        for ix, goal in enumerate(block.clause.body):
            try:
                ind = goal.indicator
            except TypeError:
                continue
            for target in self._heads.get(ind, ()):
                key = ArcKey("pointer", (block.block_id, ix, target))
                block.pointers.append(
                    NamedPointer(
                        name=ind[0],
                        literal_index=ix,
                        target=target,
                        weight=self.store.weight(key),
                    )
                )

    def add_clause(self, clause: Clause) -> int:
        """Insert a clause: new block, plus inverted-file pointer updates
        in every block whose body can now resolve to it."""
        cid = self.program.add(clause)
        block = Block(block_id=cid, clause=clause)
        while len(self.blocks) <= cid:
            self.blocks.append(block)
        self.blocks[cid] = block
        self._heads[clause.indicator].append(cid)
        self._wire_block(block)
        ind = clause.indicator
        for other in self.blocks:
            if other.block_id == cid:
                continue
            for ix, goal in enumerate(other.clause.body):
                try:
                    gind = goal.indicator
                except TypeError:
                    continue
                if gind == ind:
                    key = ArcKey("pointer", (other.block_id, ix, cid))
                    other.pointers.append(
                        NamedPointer(
                            name=ind[0],
                            literal_index=ix,
                            target=cid,
                            weight=self.store.weight(key),
                        )
                    )
        return cid

    def refresh_weights(self) -> None:
        """Re-read every pointer weight from the store (after updates)."""
        for block in self:
            for p in block.pointers:
                p.weight = self.store.weight(p.arc_key(block.block_id))

    # -- access -----------------------------------------------------------------
    def retract_clause(self, cid: int) -> None:
        """Retract a clause: its block dies and every pointer to it is
        unlinked (the inverted-file delete of §5)."""
        self.program.retract(cid)
        self.dead.add(cid)
        block = self.blocks[cid]
        try:
            ind = block.clause.indicator
            if cid in self._heads.get(ind, ()):
                self._heads[ind].remove(cid)
        except TypeError:
            pass
        block.pointers = []
        for other in self.blocks:
            if other.block_id == cid or other.block_id in self.dead:
                continue
            other.pointers = [p for p in other.pointers if p.target != cid]

    def block(self, block_id: int) -> Block:
        return self.blocks[block_id]

    def __len__(self) -> int:
        return len(self.blocks) - len(self.dead)

    def __iter__(self) -> Iterator[Block]:
        return (b for b in self.blocks if b.block_id not in self.dead)

    def blocks_for(self, indicator: tuple[str, int]) -> list[int]:
        """Block ids whose clause head matches ``indicator``."""
        return list(self._heads.get(indicator, ()))

    @property
    def total_words(self) -> int:
        """Total database footprint in words — the "substantial increase
        in database size" §5 accepts to keep per-arc weights."""
        return sum(b.size_words for b in self)

    @property
    def pointer_count(self) -> int:
        return sum(len(b.pointers) for b in self)

    def as_graph(self) -> "nx.DiGraph":
        """Block-level pointer graph (for SPD paging experiments)."""
        import networkx as nx

        g = nx.DiGraph()
        for b in self:
            g.add_node(b.block_id, indicator=b.indicator, words=b.size_words)
        for b in self:
            for p in b.pointers:
                g.add_edge(b.block_id, p.target, name=p.name, weight=p.weight)
        return g

    def render(self) -> str:
        """Figure-4 style listing of every block."""
        return "\n".join(b.render() for b in self)


def fact_graph(program: Program) -> "nx.MultiDiGraph":
    """The figure-2 view: constants as nodes, binary facts as labeled arcs.

    ``f(curt, elain)`` becomes an arc ``curt --f--> elain``.  Only
    binary facts with atomic arguments participate (exactly the shape
    of the paper's example database).
    """
    import networkx as nx

    g = nx.MultiDiGraph()
    for clause in program.facts():
        head = clause.head
        if (
            isinstance(head, Struct)
            and head.arity == 2
            and all(isinstance(a, Atom) for a in head.args)
        ):
            src, dst = head.args
            g.add_edge(src.name, dst.name, label=head.functor)
    return g
