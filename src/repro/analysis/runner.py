"""blogcheck runner: walk files, parse, apply rules, honor suppressions."""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Optional

from .core import FileContext, Finding, Rule, Suppressions, all_rules

__all__ = ["AnalysisResult", "analyze_paths", "iter_python_files", "module_identity"]


@dataclass
class AnalysisResult:
    """Outcome of one blogcheck run."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    files: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Every ``.py`` under the given files/directories, sorted, no dupes."""
    seen: set[Path] = set()
    for path in paths:
        path = Path(path)
        if path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            candidates = [path]
        else:
            continue
        for cand in candidates:
            if "__pycache__" in cand.parts:
                continue
            resolved = cand.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield cand


def module_identity(path: Path) -> str:
    """Package-relative identity: ``.../src/repro/weights/store.py`` →
    ``repro/weights/store.py``.  Rule whitelists match on this, so the
    same rules apply no matter where the tree is checked out (including
    tmpdir fixtures in tests).  Falls back to the bare filename when no
    ``repro`` directory is on the path."""
    parts = path.resolve().parts
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            return "/".join(parts[i:])
    return path.name


def analyze_paths(
    paths: Iterable[Path],
    select: Optional[Iterable[str]] = None,
    rules: Optional[list[Rule]] = None,
) -> AnalysisResult:
    """Run blogcheck over ``paths`` and return the collected result.

    A file that fails to parse yields a single ``BLG000`` finding (a
    syntax error is never a pass).  Suppressed findings are kept on
    ``result.suppressed`` for reporting — silence is visible.
    """
    active = rules if rules is not None else all_rules(select)
    result = AnalysisResult()
    for path in iter_python_files(paths):
        result.files += 1
        module = module_identity(path)
        try:
            source = path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(path))
        except (SyntaxError, UnicodeDecodeError, OSError) as exc:
            line = getattr(exc, "lineno", 0) or 0
            result.findings.append(
                Finding(
                    rule="BLG000",
                    name="parse-error",
                    path=str(path),
                    module=module,
                    line=line,
                    col=0,
                    message=f"file could not be analyzed: {exc}",
                )
            )
            continue
        lines = source.splitlines()
        ctx = FileContext(path=path, module=module, tree=tree, lines=lines)
        suppressions = Suppressions(lines)
        for r in active:
            for finding in r.check(ctx):
                if suppressions.matches(finding.line, finding.rule):
                    result.suppressed.append(finding)
                else:
                    result.findings.append(finding)
    result.findings.sort(key=lambda f: (f.path, f.line, f.rule))
    result.suppressed.sort(key=lambda f: (f.path, f.line, f.rule))
    return result
