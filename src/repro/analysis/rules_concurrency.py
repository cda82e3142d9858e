"""Concurrency-contract rules: store-mutation discipline and blocking
calls inside coroutines.

* **BLG001** — global :class:`~repro.weights.store.WeightStore` mutators
  and session-merge APIs may only be called from the modules that own
  the loop-thread mutation protocol (the weights package itself, the
  router's merge path, and the lane-worker child loop).
* **BLG002** — an ``async def`` must not call known-blocking synchronous
  APIs (``time.sleep``, subprocess spawns, sync pipe/file IO): one
  blocking call stalls the event loop and with it every lane queue,
  admission decision, and TCP client of the service.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from .core import FileContext, Finding, Rule, rule

__all__ = ["StoreMutationRule", "BlockingAsyncRule"]


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_attr(call: ast.Call) -> Optional[str]:
    """The method name of an attribute call (``x.set_known`` → ``set_known``)."""
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


@rule
class StoreMutationRule(Rule):
    """BLG001: weight-store mutations outside the whitelisted modules.

    The service's concurrency contract (see ``repro/service/server.py``)
    makes the event-loop thread the only mutator of global weight
    stores.  Statically we cannot see threads, but we *can* see modules:
    every legitimate mutation site lives in the weights package, the
    router's commit of a journaled session merge (loop-thread by
    contract), or the lane worker (which owns its mirror outright).  A
    session merge is only planned (``plan_merge`` writes nothing), so
    the mutators are the whole surface.  A mutator call anywhere else is
    a new mutation site that the contract never audited — flag it.
    """

    code = "BLG001"
    name = "store-mutation-discipline"
    summary = (
        "WeightStore mutators called outside the whitelisted "
        "loop-thread modules"
    )

    #: unambiguous mutator method/function names
    MUTATORS = frozenset({"set_known", "set_infinite", "apply_delta"})
    #: generic names only flagged when the receiver looks like a store
    STORE_GUARDED = frozenset({"forget", "clear"})
    #: module prefixes (or exact files) allowed to mutate
    ALLOWED_MODULES = (
        "repro/weights/",
        "repro/service/router.py",
        "repro/core/procpool.py",
    )

    def _allowed(self, module: str) -> bool:
        return any(
            module == allow or module.startswith(allow)
            for allow in self.ALLOWED_MODULES
        )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        # the contract governs the package; tests exercise mutators directly
        if not ctx.module.startswith("repro/") or self._allowed(ctx.module):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            attr = call_attr(node)
            bare = node.func.id if isinstance(node.func, ast.Name) else None
            name = attr or bare
            if name in self.MUTATORS:
                yield self.finding(
                    ctx,
                    node,
                    f"call to {name}() mutates a weight store outside the "
                    "whitelisted modules "
                    f"({', '.join(self.ALLOWED_MODULES)}); global stores are "
                    "loop-thread-only — route the write through the router's "
                    "commit or a weights API",
                )
            elif attr in self.STORE_GUARDED and isinstance(
                node.func, ast.Attribute
            ):
                receiver = dotted_name(node.func.value) or ""
                if "store" in receiver.lower():
                    yield self.finding(
                        ctx,
                        node,
                        f"{receiver}.{attr}() mutates a weight store outside "
                        "the whitelisted modules; global stores are "
                        "loop-thread-only",
                    )


@rule
class BlockingAsyncRule(Rule):
    """BLG002: blocking synchronous calls inside ``async def``.

    The whole service multiplexes on one event loop; ``time.sleep`` or a
    sync pipe read inside a coroutine freezes every in-flight request.
    Blocking work belongs on the worker/IO executors
    (``loop.run_in_executor``), which is exactly how both lane backends
    ship their work off the loop: a thread lane's ``LaneWorker.handle``
    and a process lane's pipe roundtrip
    (:meth:`~repro.service.workers.LaneBackend.call`).
    """

    code = "BLG002"
    name = "blocking-call-in-async"
    summary = "known-blocking sync call inside an async def"

    #: fully dotted call targets that block
    BLOCKING_DOTTED = frozenset(
        {
            "time.sleep",
            "os.system",
            "os.popen",
            "os.waitpid",
            "subprocess.run",
            "subprocess.call",
            "subprocess.check_call",
            "subprocess.check_output",
            "subprocess.Popen",
            "socket.create_connection",
            "urllib.request.urlopen",
        }
    )
    #: method names that block regardless of receiver (sync pipe/file IO)
    BLOCKING_METHODS = frozenset(
        {"send_bytes", "recv_bytes", "roundtrip", "read_text", "write_text"}
    )
    #: bare builtins that block
    BLOCKING_BARE = frozenset({"open", "input"})

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        findings: list[Finding] = []

        def visit(node: ast.AST, in_async: bool) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.AsyncFunctionDef):
                    visit(child, True)
                elif isinstance(child, (ast.FunctionDef, ast.Lambda)):
                    visit(child, False)
                else:
                    if in_async and isinstance(child, ast.Call):
                        self._check_call(ctx, child, findings)
                    visit(child, in_async)

        visit(ctx.tree, False)
        yield from findings

    def _check_call(
        self, ctx: FileContext, call: ast.Call, findings: list[Finding]
    ) -> None:
        dotted = dotted_name(call.func)
        attr = call_attr(call)
        bare = call.func.id if isinstance(call.func, ast.Name) else None
        why = None
        if dotted in self.BLOCKING_DOTTED:
            why = f"{dotted}() blocks the event loop"
        elif attr in self.BLOCKING_METHODS:
            why = (
                f".{attr}() is synchronous pipe/file IO and blocks the "
                "event loop"
            )
        elif bare in self.BLOCKING_BARE:
            why = f"builtin {bare}() is synchronous IO and blocks the event loop"
        if why is not None:
            findings.append(
                self.finding(
                    ctx,
                    call,
                    f"{why}; inside async def it stalls every lane, admission "
                    "decision, and TCP client — run it via "
                    "loop.run_in_executor / the pool's IO executor instead",
                )
            )
