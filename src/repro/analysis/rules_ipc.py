"""IPC-contract rule: pickle-unsafe payloads on lane pipes.

* **BLG003** — every lane message may cross a process-lane pipe, which
  pickles it (:meth:`~repro.service.workers.ProcessLaneBackend._exchange`);
  an object that cannot be pickled fails *at send time*, mid-request,
  and the backend treats the broken roundtrip like a dead worker.  The
  thread backend hands the same messages over unpickled, so a bad
  payload would pass every thread-lane test and only fail on process
  lanes — hence a static check.  The classic
  offenders are statically visible: lambdas, locally-defined functions
  and classes (closures), generator expressions, and open file handles.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from .core import FileContext, Finding, Rule, rule
from .rules_concurrency import dotted_name

__all__ = ["PickleSafetyRule"]


@rule
class PickleSafetyRule(Rule):
    """BLG003: provably unpicklable objects reaching a lane send path.

    Checked payload expressions: the argument of ``pickle.dumps(...)``
    (and bare ``dumps(...)`` when imported from pickle) and the message
    argument of ``lane_call(lane, msg, ...)``, the one call every lane
    message goes through on either backend.  A payload is flagged
    when its expression tree contains a lambda, a generator expression,
    an ``open(...)`` call, or a name bound in the *enclosing function*
    to a nested ``def``/``class``/lambda or an ``open(...)`` result —
    all of which the pickle protocol rejects (or, for handles, cannot
    transplant into another process).
    """

    code = "BLG003"
    name = "pickle-unsafe-ipc-payload"
    summary = "unpicklable object (lambda/closure/handle) in a lane IPC payload"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        pickle_dumps_imported = self._has_from_pickle_import_dumps(ctx.tree)
        findings: list[Finding] = []

        def visit(node: ast.AST, local_defs: dict[str, str]) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    # the nested def's *name* is a closure in this scope …
                    scope = dict(local_defs)
                    if not isinstance(node, ast.Module):
                        local_defs[child.name] = "locally-defined function"
                    # … and inside it, a fresh scope inherits nothing local
                    visit(child, scope if isinstance(node, ast.Module) else dict(local_defs))
                    continue
                if isinstance(child, ast.ClassDef):
                    if not isinstance(node, ast.Module):
                        local_defs[child.name] = "locally-defined class"
                    visit(child, dict(local_defs))
                    continue
                if isinstance(child, ast.Assign) and len(child.targets) == 1:
                    target = child.targets[0]
                    if isinstance(target, ast.Name):
                        reason = self._binding_reason(child.value)
                        if reason is not None and not isinstance(node, ast.Module):
                            local_defs[target.id] = reason
                        elif target.id in local_defs:
                            del local_defs[target.id]  # rebound to something safe
                if isinstance(child, ast.Call):
                    payload = self._payload_of(child, pickle_dumps_imported)
                    if payload is not None:
                        self._check_payload(ctx, child, payload, local_defs, findings)
                visit(child, local_defs)

        visit(ctx.tree, {})
        yield from findings

    # -- what counts as a send path ----------------------------------------
    @staticmethod
    def _has_from_pickle_import_dumps(tree: ast.Module) -> bool:
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "pickle":
                if any(a.name == "dumps" for a in node.names):
                    return True
        return False

    @staticmethod
    def _payload_of(
        call: ast.Call, pickle_dumps_imported: bool
    ) -> Optional[ast.expr]:
        dotted = dotted_name(call.func)
        if dotted == "pickle.dumps" and call.args:
            return call.args[0]
        if (
            pickle_dumps_imported
            and isinstance(call.func, ast.Name)
            and call.func.id == "dumps"
            and call.args
        ):
            return call.args[0]
        name = (
            call.func.attr
            if isinstance(call.func, ast.Attribute)
            else call.func.id
            if isinstance(call.func, ast.Name)
            else None
        )
        if name == "lane_call" and len(call.args) >= 2:
            return call.args[1]  # lane_call(lane, msg, timeout)
        return None

    # -- what counts as unpicklable ----------------------------------------
    @staticmethod
    def _binding_reason(value: ast.expr) -> Optional[str]:
        if isinstance(value, ast.Lambda):
            return "lambda"
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
            if value.func.id == "open":
                return "open file handle"
        return None

    def _check_payload(
        self,
        ctx: FileContext,
        call: ast.Call,
        payload: ast.expr,
        local_defs: dict[str, str],
        findings: list[Finding],
    ) -> None:
        for node in ast.walk(payload):
            why = None
            if isinstance(node, ast.Lambda):
                why = "a lambda"
            elif isinstance(node, ast.GeneratorExp):
                why = "a generator expression"
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "open"
            ):
                why = "an open file handle"
            elif isinstance(node, ast.Name) and node.id in local_defs:
                why = f"{local_defs[node.id]} ({node.id!r})"
            if why is not None:
                findings.append(
                    self.finding(
                        ctx,
                        call,
                        f"IPC payload contains {why}, which pickle rejects — "
                        "the lane roundtrip would fail mid-request and read "
                        "as a dead worker; ship plain data (dicts, tuples, "
                        "module-level classes) across the pipe",
                    )
                )
                return  # one finding per payload is enough
