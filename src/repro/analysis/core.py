"""blogcheck core: findings, the rule registry, and suppression comments.

The serving layers built in PRs 1–3 rest on *written* contracts — global
weight stores are mutated only on the event-loop thread, everything that
crosses a process-lane pipe must be picklable, no hot-path exception
handler swallows a failure.  ``blogcheck`` turns those contracts
into machine-checked invariants: a zero-dependency AST pass with one
rule per contract, run on every commit (``python -m repro.cli lint``).

A rule is a class with a ``code`` (``BLG001``…), registered with the
:func:`rule` decorator, exposing ``check(ctx)`` (one file at a time).

Suppressions are per-line comments::

    store.set_known(key, w)  # blogcheck: ignore[BLG001] — loop-thread helper

``ignore[BLG001,BLG005]`` silences several rules, bare ``ignore``
silences all of them; a suppression on its own comment line applies to
the next line.  Suppressed findings are counted, never silently lost.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Optional, Type

__all__ = [
    "Finding",
    "FileContext",
    "Rule",
    "rule",
    "all_rules",
    "rules_by_code",
    "Suppressions",
]


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str  # "BLG005"
    name: str  # "swallowed-exception"
    path: str  # filesystem path as given to the runner
    module: str  # package-relative identity, e.g. "repro/service/server.py"
    line: int
    col: int
    message: str

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "name": self.name,
            "path": self.path,
            "module": self.module,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


@dataclass
class FileContext:
    """Everything a rule may look at for one file."""

    path: Path
    module: str
    tree: ast.Module
    lines: list[str]


class Rule:
    """Base class for blogcheck rules.

    Subclasses set ``code``, ``name``, and ``summary`` and implement
    :meth:`check`.
    """

    code: str = "BLG000"
    name: str = "unnamed"
    summary: str = ""

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, ctx: FileContext, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            rule=self.code,
            name=self.name,
            path=str(ctx.path),
            module=ctx.module,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


_REGISTRY: dict[str, Type[Rule]] = {}


def rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: add a rule to the global registry (by code)."""
    if cls.code in _REGISTRY:
        raise ValueError(f"rule code {cls.code!r} registered twice")
    _REGISTRY[cls.code] = cls
    return cls


def rules_by_code() -> dict[str, Type[Rule]]:
    """The registry, importing the built-in rule modules on first use."""
    from . import (  # noqa: F401
        rules_concurrency,
        rules_durability,
        rules_telemetry,
    )

    return dict(sorted(_REGISTRY.items()))


def all_rules(select: Optional[Iterable[str]] = None) -> list[Rule]:
    """Fresh instances of every registered rule (or the selected codes)."""
    registry = rules_by_code()
    if select is None:
        return [cls() for cls in registry.values()]
    picked = []
    for code in select:
        code = code.strip().upper()
        if code not in registry:
            raise KeyError(
                f"unknown rule {code!r}; have {', '.join(registry)}"
            )
        picked.append(registry[code]())
    return picked


# -- suppressions ------------------------------------------------------------

_SUPPRESS_RE = re.compile(
    r"#\s*blogcheck:\s*ignore(?:\[(?P<codes>[A-Za-z0-9_,\s]+)\])?"
)


class Suppressions:
    """Per-line ``# blogcheck: ignore[...]`` markers for one file.

    A marker suppresses findings on its own line; a marker on a line
    that holds nothing but the comment also suppresses the next line
    (so a suppression can sit above a long statement).
    """

    def __init__(self, lines: list[str]):
        #: line number -> frozenset of codes, or None meaning "all rules"
        self._by_line: dict[int, Optional[frozenset[str]]] = {}
        for i, text in enumerate(lines, start=1):
            m = _SUPPRESS_RE.search(text)
            if not m:
                continue
            codes = m.group("codes")
            value: Optional[frozenset[str]] = (
                frozenset(c.strip().upper() for c in codes.split(",") if c.strip())
                if codes
                else None
            )
            self._merge(i, value)
            if text[: m.start()].strip() == "":  # comment-only line
                self._merge(i + 1, value)

    def _merge(self, line: int, value: Optional[frozenset[str]]) -> None:
        prior = self._by_line.get(line, frozenset())
        if value is None or prior is None:
            self._by_line[line] = None
        else:
            self._by_line[line] = prior | value

    def matches(self, line: int, code: str) -> bool:
        value = self._by_line.get(line, frozenset())
        if value is None:
            return True
        return code.upper() in value

    def __len__(self) -> int:
        return len(self._by_line)
