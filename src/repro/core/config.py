"""Configuration knobs of the B-LOG engine (the simulated machine's,
§6's migration threshold D among them, are
:class:`~repro.machine.blog_machine.MachineConfig`).

Collects the constants the paper introduces by name:

* ``n`` — the common bound N of successful chains (§5);
* ``a`` — the longest chain length A; infinity encodes as A·N (§5);
* ``alpha`` — session averaging rate for conservative merges (§5
  "averaging of modifications over different sessions");
* engine limits and policies.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["BLogConfig"]


@dataclass
class BLogConfig:
    """Engine configuration (defaults follow the paper's spirit:
    N is arbitrary, A bounds the deepest chain we expect)."""

    n: float = 16.0
    a: int = 16
    alpha: float = 0.5
    arc_key_policy: str = "pointer"  # "pointer" (fig 4) or "goal" (§4 req 1)
    selection_rule: str = "leftmost"  # computation rule: "leftmost"
    # (Prolog/§2), "most-bound", or "fewest-candidates" (§7 ordering)
    max_depth: int = 128
    max_expansions: int = 200_000
    failure_blame: str = "leafmost"  # §5 default; or "rootmost" / "all"
    success_distribute: str = "equal"  # §5 default; or "leaf-weighted" /
    # "root-weighted" (E11 ablates these)

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ValueError("N must be positive")
        if self.a < 2:
            raise ValueError("A must be >= 2")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if self.arc_key_policy not in ("pointer", "goal"):
            raise ValueError("arc_key_policy must be 'pointer' or 'goal'")
        if self.selection_rule not in (
            "leftmost",
            "most-bound",
            "fewest-candidates",
        ):
            raise ValueError(
                "selection_rule must be leftmost/most-bound/fewest-candidates"
            )
        if self.failure_blame not in ("leafmost", "rootmost", "all"):
            raise ValueError("failure_blame must be leafmost/rootmost/all")
        if self.success_distribute not in (
            "equal",
            "leaf-weighted",
            "root-weighted",
        ):
            raise ValueError(
                "success_distribute must be equal/leaf-weighted/root-weighted"
            )
