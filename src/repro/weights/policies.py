"""Alternative bound-update policies (§8: "evaluation of alternative
bound generation and updating algorithms ... is in progress").

The paper commits to two specific choices and flags both as open:

* **failure blame** — which unknown weight takes the infinity.  "The
  choice of which weight to set to 'infinity' is similar to the
  backtracking problem in Prolog; we think it should be the unknown
  nearest the leaf" (§5).  Alternatives here: nearest the *root*
  (aggressive: kills the whole subtree's entry arc), and *all*
  unknowns (maximally aggressive).
* **success distribution** — how (N−M) spreads over the k unknown
  arcs.  The paper divides equally; alternatives: *leaf-weighted*
  (deeper arcs get more — keeps shared prefixes cheap, matching the
  intuition that early decisions are reused by many chains) and
  *root-weighted* (the mirror image).

E11 measures all combinations.  The rules themselves are
:mod:`repro.weights.update`'s, which take the policy as a parameter:
:func:`on_failure_policy` and :func:`on_success_policy` are the same
functions under the names the engine and E11 use.
"""

from __future__ import annotations

from typing import Literal

from .update import on_failure, on_success

__all__ = [
    "BlamePolicy",
    "DistributePolicy",
    "on_failure_policy",
    "on_success_policy",
    "POLICY_COMBINATIONS",
]

BlamePolicy = Literal["leafmost", "rootmost", "all"]
DistributePolicy = Literal["equal", "leaf-weighted", "root-weighted"]

POLICY_COMBINATIONS: list[tuple[BlamePolicy, DistributePolicy]] = [
    (blame, dist)
    for blame in ("leafmost", "rootmost", "all")
    for dist in ("equal", "leaf-weighted", "root-weighted")
]

#: the failure rule, ``(store, arcs, blame="leafmost")``
on_failure_policy = on_failure
#: the success rule, ``(store, arcs, distribute="equal")``
on_success_policy = on_success
