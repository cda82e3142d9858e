"""The traced run's per-layer split, measured from outside the program.

Two sources, both installed when the measured window opens and removed
when it closes:

* :class:`EngineWrappers` wraps public engine functions where the engine
  looks them up (a name imported with ``from x import y`` is wrapped in
  the importing module) and adds up, per thread, each layer's inclusive
  time, self time and call count.  Thread lanes run engine code on two
  worker threads, so every thread keeps its own tally and the tallies
  are summed at the end.
* :class:`SpanTally` is a ``Tracer.on_finish`` hook that adds up span
  self time per span name in memory; the service already records the
  spans, so its phase names are the tracer's.

Wrapping costs time on every wrapped call.  The traced run therefore
reports its own end-to-end values (``traced.*``) next to the split, so
the overhead is measured rather than guessed; end-to-end metrics always
come from untraced runs.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from typing import Any, Callable, Optional

__all__ = ["EngineWrappers", "SpanTally"]


class _Tally:
    """One thread's layer totals and its stack of open wrapped calls."""

    def __init__(self) -> None:
        self.total: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        #: open wrapped calls, innermost last: [layer name, child seconds]
        self.stack: list[list[Any]] = []

    def close(self, frame: list[Any], seconds: float, call: bool = True) -> None:
        name = frame[0]
        self.total[name] += seconds
        self.self_s[name] += seconds - frame[1]
        self.calls[name] += call
        if self.stack:
            self.stack[-1][1] += seconds


class EngineWrappers:
    """Timing wrappers around the engine's public functions."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._tallies: list[_Tally] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []

    def _tally(self) -> _Tally:
        tally = getattr(self._local, "tally", None)
        if tally is None:
            tally = _Tally()
            self._local.tally = tally
            with self._lock:
                self._tallies.append(tally)
        return tally

    # -- installing ----------------------------------------------------------
    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _timed(
        self,
        fn: Callable,
        name: str,
        outermost: bool = False,
        deltas: Optional[Callable[[Any], dict[str, int]]] = None,
    ) -> Callable:
        """``fn`` timed as layer ``name``.  ``outermost`` passes recursive
        calls straight through; ``deltas(first_arg)`` reads counters whose
        change across the call is added to the tally."""
        tally_of = self._tally
        perf = time.perf_counter

        def wrapped(*args, **kwargs):
            tally = tally_of()
            stack = tally.stack
            if outermost and stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            before = deltas(args[0]) if deltas is not None else None
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds = perf() - t0
                stack.pop()
                tally.close(frame, seconds)
                if before is not None:
                    for key, value in deltas(args[0]).items():
                        tally.counts[key] += value - before[key]

        return wrapped

    def _timed_generator(self, fn: Callable, name: str) -> Callable:
        """A generator function timed per step (the consumer's work
        between steps is not charged to ``name``)."""
        tally_of = self._tally
        perf = time.perf_counter

        def steps(gen):
            tally = tally_of()
            tally.calls[name] += 1
            while True:
                frame = [name, 0.0]
                tally.stack.append(frame)
                t0 = perf()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    seconds = perf() - t0
                    tally.stack.pop()
                    tally.close(frame, seconds, call=False)  # counted once above
                yield item

        def wrapped(*args, **kwargs):
            return steps(fn(*args, **kwargs))

        return wrapped

    def install(self, router: bool = False) -> None:
        import repro.core.engine as engine_mod
        import repro.logic.solver as solver_mod
        import repro.logic.terms as terms_mod
        import repro.ortree.tree as tree_mod
        from repro.logic.program import Program
        from repro.logic.unify import Bindings
        from repro.ortree.tree import OrTree
        from repro.weights.store import WeightStore

        def tree_counters(tree) -> dict[str, int]:
            return {"ortree.generated": tree.generated, "ortree.words_copied": tree.words_copied}

        t = self._timed
        self._patch(Bindings, "resolve", t(Bindings.resolve, "logic.resolve", outermost=True))
        self._patch(tree_mod, "unify", t(tree_mod.unify, "logic.unify"))
        # OrTree renames clauses through solver._rename_clause, which looks
        # rename_apart up in the solver module
        self._patch(solver_mod, "rename_apart", t(solver_mod.rename_apart, "logic.rename_apart"))
        self._patch(Program, "candidates", t(Program.candidates, "logic.candidates"))
        self._patch(
            tree_mod, "call_builtin", self._timed_generator(tree_mod.call_builtin, "logic.builtin")
        )
        # _make_child imports term_size from the terms module on every call
        self._patch(terms_mod, "term_size", t(terms_mod.term_size, "logic.term_size"))
        self._patch(OrTree, "expand", t(OrTree.expand, "ortree.expand", deltas=tree_counters))
        for policy in ("on_success_policy", "on_failure_policy"):
            self._patch(engine_mod, policy, t(getattr(engine_mod, policy), "weights.update"))
        self._patch(
            engine_mod.BLogEngine, "query", t(engine_mod.BLogEngine.query, "core.query")
        )

        weight_fn = WeightStore.weight_fn
        tally_of = self._tally

        def counted_weight_fn(store):
            lookup = weight_fn(store)

            def counted(key):
                tally_of().counts["weights.lookups"] += 1
                return lookup(key)

            return counted

        self._patch(WeightStore, "weight_fn", counted_weight_fn)
        if router:
            from repro.service.router import SessionRouter

            def opened(r) -> dict[str, int]:
                return {"router.sessions_opened": r.sessions_opened}

            self._patch(
                SessionRouter, "open", t(SessionRouter.open, "router.open", deltas=opened)
            )

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading -------------------------------------------------------------
    def totals(self) -> dict[str, dict[str, float]]:
        """``{layer: {"s", "self_s", "calls"}}`` summed over threads."""
        out: dict[str, dict[str, float]] = {}
        with self._lock:
            tallies = list(self._tallies)
        for tally in tallies:
            for name, seconds in tally.total.items():
                row = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
                row["s"] += seconds
                row["self_s"] += tally.self_s[name]
                row["calls"] += tally.calls[name]
        return out

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        with self._lock:
            tallies = list(self._tallies)
        for tally in tallies:
            for name, n in tally.counts.items():
                out[name] += n
        return dict(out)


class SpanTally:
    """``Tracer.on_finish`` hook: span self time per span name.

    A root span is tallied as ``<root name>.self``, the ``cache`` span as
    ``cache.lookup`` or ``cache.fill``, and the spans of other traces
    under their root's name (``end_session/merge``).  For request traces it
    also keeps the spans per request and the first and last
    ``expansions_to_first`` of every session's engine runs.
    """

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.count: dict[str, int] = defaultdict(int)
        self.requests = 0
        self.request_spans = 0
        #: (program, session) -> [first, last, engine runs]
        self.to_first: dict[tuple, list[int]] = {}

    def __call__(self, trace) -> None:
        child_s: dict[int, float] = defaultdict(float)
        for span in trace.spans:
            if span.parent_id is not None:
                child_s[span.parent_id] += span.duration_s
        root = trace.root
        # spans of non-request traces (end_session, recovery) are kept
        # apart: "end_session/queue" is not a request's queue wait
        scope = "" if root.name == "request" else f"{root.name}/"
        for span in trace.spans:
            if span is root:
                name = f"{root.name}.self"
            elif span.name == "cache":
                name = "cache.fill" if span.attributes.get("fill") else "cache.lookup"
            else:
                name = scope + span.name
            self.self_s[name] += span.duration_s - child_s.get(span.span_id, 0.0)
            self.count[name] += 1
        if root.name != "request":
            return
        self.requests += 1
        self.request_spans += len(trace.spans)
        session = (root.attributes.get("program"), root.attributes.get("session"))
        for span in trace.find("engine"):
            etf = span.attributes.get("expansions_to_first")
            if etf is None:
                continue
            row = self.to_first.setdefault(session, [etf, etf, 0])
            row[1] = etf
            row[2] += 1

    def to_first_ratio(self) -> float:
        """Mean expansions-to-first of sessions' last engine query over
        their first (sessions with at least two engine runs)."""
        rows = [r for r in self.to_first.values() if r[2] >= 2]
        first = sum(r[0] for r in rows)
        return sum(r[1] for r in rows) / first if first else 0.0
