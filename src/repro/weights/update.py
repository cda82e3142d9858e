"""Weight update rules on search outcomes (paper §5).

Failure rule — "If a failed search occurs and it does not already have
an arc with infinite weight in the chain, we will set any one of the
unknown weights to infinity.  The choice [...] should be the unknown
nearest the leaf in the chain."

Success rule — "If a solution to the query is found, we will reset all
unknown or infinite weights as follows: if the known weights add up to
a number greater than N, set them to 0, else if there are k unknown or
infinite weights, set them equally so that the sum of weights is N,
i.e. if the known weights add up to M, set them to (N-M)/k."

Each rule is written once, here.  The failure rule takes a blame target
and the success rule a distribution of N−M, the paper's choices by
default; :mod:`repro.weights.policies` names the alternatives §8 leaves
open, and :mod:`repro.weights.conditional` runs the same rules over
conditioned pairs.  Both rules take the chain's arcs root→leaf
(``OrTree.chain_arcs``) and update the keys ``store.chain_keys`` picks
from them; builtin arcs are transparent (always weight 0, never
updated).  A rule commits its writes as one :class:`StoreDelta`, which
advances the store's generation by one per key written.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Protocol, Sequence

from ..ortree.tree import ArcKey, OrArc
from .store import StoreDelta, WeightEntry, WeightState

__all__ = ["UpdateLog", "Learner", "on_failure", "on_success", "apply_outcome"]


@dataclass
class UpdateLog:
    """What an update changed (for tests and the session audit trail)."""

    kind: str  # "success" | "failure" | "noop"
    set_known: list[tuple[ArcKey, float]] = field(default_factory=list)
    set_infinite: list[ArcKey] = field(default_factory=list)
    anomaly: bool = False  # §5: known weights exceeded N (clamped to 0)


class RuleStore(Protocol):
    """What the rules read and write: a :class:`~repro.weights.store.WeightStore`
    keyed by arcs, or a conditional store's pair-keyed view."""

    n: float
    generation: int

    @property
    def infinity_value(self) -> float: ...
    def chain_keys(self, arcs: Sequence[OrArc]) -> list[Any]: ...
    def entry(self, key: Any) -> WeightEntry: ...
    def apply_delta(self, delta: StoreDelta) -> int: ...


def _commit(store: RuleStore, writes: dict[Any, WeightEntry]) -> None:
    g = store.generation
    store.apply_delta(StoreDelta(g, g + len(writes), writes))


#: The §5 learning hook: ``learn(arcs, solved)`` applies a rule to the
#: chain ending at a solution (``solved``) or failure leaf.
Learner = Callable[[Sequence[OrArc], bool], UpdateLog]


def on_failure(store: RuleStore, arcs: Sequence[OrArc], blame: str = "leafmost") -> UpdateLog:
    """Apply the failure rule to a failed chain.

    Sets an UNKNOWN weight to infinity — unless the chain already
    contains an infinite arc (the failure is already "priced in") or
    contains no unknown arc (nothing safe to blame: overriding a known
    weight would contradict a recorded success, the pathological case §4
    warns about).  ``blame`` picks the unknown: ``leafmost`` (the
    paper's), ``rootmost`` or ``all``.
    """
    keys = store.chain_keys(arcs)
    log = UpdateLog(kind="failure")
    states = [store.entry(k).state for k in keys]
    if WeightState.INFINITE in states:
        log.kind = "noop"
        return log
    unknowns = [k for k, state in zip(keys, states) if state is WeightState.UNKNOWN]
    if not unknowns:
        log.kind = "noop"
        log.anomaly = True  # all-known failed chain: inconsistent weights
        return log
    if blame == "leafmost":
        targets = [unknowns[-1]]
    elif blame == "rootmost":
        targets = [unknowns[0]]
    elif blame == "all":
        targets = unknowns
    else:
        raise ValueError(f"unknown blame policy {blame!r}")
    infinite = WeightEntry(WeightState.INFINITE, store.infinity_value)
    _commit(store, dict.fromkeys(targets, infinite))
    log.set_infinite = targets
    return log


def on_success(
    store: RuleStore, arcs: Sequence[OrArc], distribute: str = "equal"
) -> UpdateLog:
    """Apply the success rule to a solution chain.

    Known weights sum to M.  If M > N, the unknown/infinite arcs get 0
    (anomaly: the chain already overshoots the target bound).  Else the
    k unknown-or-infinite arcs (in chain order, root→leaf) share N−M,
    making the chain sum exactly N: ``equal`` gives (N−M)/k each (the
    paper's), ``leaf-weighted`` shares in proportion to 1..k (deeper
    gets more) and ``root-weighted`` to k..1.
    """
    keys = store.chain_keys(arcs)
    log = UpdateLog(kind="success")
    entries = [store.entry(k) for k in keys]
    known_sum = sum(e.value for e in entries if e.state is WeightState.KNOWN)
    resettable = [k for k, e in zip(keys, entries) if e.state is not WeightState.KNOWN]
    if not resettable:
        log.kind = "noop"
        return log
    budget = store.n - known_sum
    if budget < 0:
        log.anomaly = True
        budget = 0.0  # every reset arc gets 0
    k = len(resettable)
    if distribute == "equal":
        shares = [1.0] * k
    elif distribute == "leaf-weighted":
        shares = [float(i + 1) for i in range(k)]
    elif distribute == "root-weighted":
        shares = [float(k - i) for i in range(k)]
    else:
        raise ValueError(f"unknown distribute policy {distribute!r}")
    total = sum(shares)
    log.set_known = [(key, budget * share / total) for key, share in zip(resettable, shares)]
    _commit(store, {key: WeightEntry(WeightState.KNOWN, value) for key, value in log.set_known})
    return log


def apply_outcome(store: RuleStore, arcs: Sequence[OrArc], solved: bool) -> UpdateLog:
    """The paper's rules as a :data:`Learner` over ``store``
    (``functools.partial(apply_outcome, store)``)."""
    return on_success(store, arcs) if solved else on_failure(store, arcs)
