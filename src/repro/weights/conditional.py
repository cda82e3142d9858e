"""The conditional (first-order context) bound of §5's outlook.

"Other bounds may be used [...] For example, conditional probabilities
(conditional information) might be added to the model, since a decision
should depend on what has been previously decided, but maintaining the
database in this model is clearly more difficult than our approach."

:class:`ConditionalWeightStore` keys weights by the **pair**
``(parent arc key, arc key)`` — the decision conditioned on the one
before it — with the marginal :class:`WeightStore` as the backoff for
unseen pairs.  The §5 update rules of :mod:`repro.weights.update` run
unchanged over the pair chain, through a pair-keyed view of the store.

This resolves the conflation the marginal model suffers when the *same*
database pointer succeeds under one calling context and fails under
another (E11 builds exactly that workload): the marginal store can only
thrash or stay agnostic; the conditional store prices both contexts
independently at the cost of a (worst-case) squared weight table —
the "more difficult" database maintenance the paper warns about,
quantified by :attr:`table_entries`.
"""

from __future__ import annotations

from typing import Optional, Sequence, cast

from ..ortree.tree import ArcKey, OrArc
from .store import WeightEntry, WeightState, WeightStore
from .update import UpdateLog, on_failure, on_success

__all__ = ["ConditionalWeightStore", "conditional_on_success", "conditional_on_failure"]

PairKey = tuple[Optional[ArcKey], ArcKey]


class ConditionalWeightStore:
    """Pair-keyed weights with marginal backoff."""

    def __init__(self, n: float = 16.0, a: int = 16):
        self.marginal = WeightStore(n=n, a=a)
        self._pairs: dict[PairKey, WeightEntry] = {}

    @property
    def n(self) -> float:
        return self.marginal.n

    @property
    def a(self) -> int:
        return self.marginal.a

    @property
    def table_entries(self) -> int:
        """Pair entries held — the §5 "database maintenance" cost."""
        return len(self._pairs)

    # -- reads -------------------------------------------------------------
    def entry(self, prev: Optional[ArcKey], key: ArcKey) -> WeightEntry:
        e = self._pairs.get((prev, key))
        if e is not None:
            return e
        return self.marginal.entry(key)

    def weight(self, prev: Optional[ArcKey], key: ArcKey) -> float:
        return self.entry(prev, key).value

    def state(self, prev: Optional[ArcKey], key: ArcKey) -> WeightState:
        return self.entry(prev, key).state

    def is_known(self, prev: Optional[ArcKey], key: ArcKey) -> bool:
        return self.state(prev, key) is WeightState.KNOWN

    def is_infinite(self, prev: Optional[ArcKey], key: ArcKey) -> bool:
        return self.state(prev, key) is WeightState.INFINITE

    def is_unknown(self, prev: Optional[ArcKey], key: ArcKey) -> bool:
        return self.state(prev, key) is WeightState.UNKNOWN

    # -- writes -----------------------------------------------------------------
    def set_known(self, prev: Optional[ArcKey], key: ArcKey, value: float) -> None:
        if key.kind == "builtin":
            return
        self._pairs[(prev, key)] = WeightEntry(WeightState.KNOWN, max(0.0, value))

    def set_infinite(self, prev: Optional[ArcKey], key: ArcKey) -> None:
        if key.kind == "builtin":
            return
        self._pairs[(prev, key)] = WeightEntry(
            WeightState.INFINITE, self.marginal.infinity_value
        )

    def copy(self) -> "ConditionalWeightStore":
        out = ConditionalWeightStore(self.n, self.a)
        out.marginal = self.marginal.copy()
        out._pairs = dict(self._pairs)
        return out

    # -- OrTree hook -------------------------------------------------------------
    def pair_weight_fn(self):
        """A callable for :class:`OrTree`'s ``pair_weight_fn`` hook."""
        return self.weight


def _pair_chain(arcs: Sequence[OrArc]) -> list[PairKey]:
    """Distinct (prev, key) pairs along the chain, builtins skipped."""
    out: list[PairKey] = []
    seen: set[PairKey] = set()
    prev: Optional[ArcKey] = None
    for arc in arcs:
        if arc.key.kind == "builtin":
            continue
        pair = (prev, arc.key)
        if pair not in seen:
            seen.add(pair)
            out.append(pair)
        prev = arc.key
    return out


class _PairView:
    """A :class:`ConditionalWeightStore` keyed by whole pairs, the shape
    :mod:`repro.weights.update`'s rules read and write."""

    chain_keys = staticmethod(_pair_chain)

    def __init__(self, store: ConditionalWeightStore):
        self.store = store
        self.n = store.n

    def entry(self, pair: PairKey) -> WeightEntry:
        return self.store.entry(*pair)

    def set_known(self, pair: PairKey, value: float) -> None:
        self.store.set_known(*pair, value)

    def set_infinite(self, pair: PairKey) -> None:
        self.store.set_infinite(*pair)


def _arc_keyed(log: UpdateLog) -> UpdateLog:
    """``log``, which lists the pairs a rule wrote, listing their arc
    keys instead, as a marginal update's does."""
    pairs = cast(list[PairKey], log.set_infinite)
    log.set_infinite = [key for _, key in pairs]
    known = cast(list[tuple[PairKey, float]], log.set_known)
    log.set_known = [(key, value) for (_, key), value in known]
    return log


def conditional_on_failure(
    store: ConditionalWeightStore, arcs: Sequence[OrArc]
) -> UpdateLog:
    """The §5 failure rule over conditioned pairs."""
    return _arc_keyed(on_failure(_PairView(store), arcs))


def conditional_on_success(
    store: ConditionalWeightStore, arcs: Sequence[OrArc]
) -> UpdateLog:
    """The §5 success rule over conditioned pairs."""
    return _arc_keyed(on_success(_PairView(store), arcs))
