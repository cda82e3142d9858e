"""blogcheck: AST-based invariant linter for the B-LOG service contracts.

Zero dependencies; four rules (BLG001, BLG002, BLG005, BLG007) covering
the concurrency, telemetry and durability contracts.  Run it with
``python -m repro.cli lint`` (or ``python -m repro.analysis``); see
``docs/ANALYSIS.md`` for the rule catalog and suppression syntax.
"""

from .core import FileContext, Finding, Rule, Suppressions, all_rules, rule, rules_by_code
from .report import render_github, render_json, render_text
from .runner import AnalysisResult, analyze_paths, iter_python_files, module_identity

__all__ = [
    "AnalysisResult",
    "FileContext",
    "Finding",
    "Rule",
    "Suppressions",
    "all_rules",
    "analyze_paths",
    "iter_python_files",
    "module_identity",
    "render_github",
    "render_json",
    "render_text",
    "rule",
    "rules_by_code",
]
