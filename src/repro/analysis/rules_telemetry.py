"""Telemetry-contract rule: swallowed exceptions.

* **BLG005** — service hot paths must not swallow exceptions: a bare
  ``except:`` anywhere, or a handler that neither re-raises, records,
  nor logs, turns an operational signal into silence.

The other two telemetry contracts hold by construction rather than by
lint: traces and spans open only as ``with`` blocks
(:meth:`~repro.service.telemetry.Tracer.trace`,
:meth:`~repro.service.telemetry.Trace.span`), timers observe on every
exit (:meth:`~repro.service.telemetry.Histogram.time`), and the metrics
registry refuses a name missing from ``METRIC_CATALOG``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .core import FileContext, Finding, Rule, rule

__all__ = ["SwallowedExceptionRule"]


# -- BLG005 ------------------------------------------------------------------


@rule
class SwallowedExceptionRule(Rule):
    """BLG005: exception handlers that silence failures in hot paths.

    Scope: ``repro/service/``, ``repro/core/``, ``repro/weights/`` — the
    modules on the request path.  Flagged: any bare ``except:``, and any
    handler whose body neither raises, calls anything (logging,
    counting, replying), nor assigns (recording) — i.e. the error
    vanishes without an operational trace.  Intentional drops carry a
    suppression comment saying *why* they are safe.
    """

    code = "BLG005"
    name = "swallowed-exception"
    summary = "exception handler silences a failure on a service hot path"

    HOT_PATHS = ("repro/service/", "repro/core/", "repro/weights/")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not any(ctx.module.startswith(p) for p in self.HOT_PATHS):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    ctx,
                    node,
                    "bare 'except:' catches SystemExit/KeyboardInterrupt too "
                    "and hides the failure — name the exceptions and record "
                    "or re-raise them",
                )
                continue
            if not self._handles(node):
                caught = ast.unparse(node.type)
                yield self.finding(
                    ctx,
                    node,
                    f"'except {caught}' swallows the failure: the body "
                    "neither re-raises, logs, counts, nor records it — on a "
                    "hot path that turns real faults into silence; handle "
                    "it, or suppress with a comment saying why the drop is "
                    "safe",
                )

    @staticmethod
    def _handles(handler: ast.ExceptHandler) -> bool:
        """A handler handles when it re-raises, calls anything (log,
        count, reply), records (assign), or returns a *value* (the error
        is translated for the caller).  ``pass``, ``continue``, and bare
        ``return`` drop the failure on the floor."""
        for stmt in handler.body:
            for n in ast.walk(stmt):
                if isinstance(
                    n, (ast.Raise, ast.Call, ast.Assign, ast.AugAssign, ast.AnnAssign)
                ):
                    return True
                if isinstance(n, ast.Return) and n.value is not None:
                    return True
        return False
