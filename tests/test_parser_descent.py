"""The scan-and-descent parser: nesting limit, shared constants and
the variable-id sequence (tokens, terms and errors are pinned by
``test_parser_golden.py``).

Terms nested past :data:`~repro.logic.parser.MAX_DEPTH` levels are a
``ParseError`` at the token where the limit is crossed, from every
entry point; they used to escape as a bare ``RecursionError``.  The
variable ids a parse assigns drive the engine's fresh ids and so its
traces: their sequence over every golden workload source is pinned by
a digest.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.logic import Atom, Int, ParseError, Struct, Var
from repro.logic.parser import (
    MAX_DEPTH,
    parse_clause,
    parse_program,
    parse_query,
    parse_term,
)
from repro.logic.program import Program
from repro.logic.terms import reset_var_counter

from .test_parser_golden import LARGE_WORKLOADS, WORKLOADS, workload_source

DEEP = "f(" * 3000 + "a" + ")" * 3000


def _at(src: str, line: int, col: int) -> str:
    return src.split("\n")[line - 1][col - 1:]


@pytest.mark.parametrize(
    "parse, src",
    [
        (parse_query, DEEP),
        (parse_term, DEEP),
        (parse_clause, f"p({DEEP})."),
        (parse_program, f"q.\np({DEEP}).\n"),
        (Program.from_source, f"q.\np({DEEP}).\n"),
    ],
    ids=["parse_query", "parse_term", "parse_clause", "parse_program", "from_source"],
)
def test_deep_nesting_is_a_parse_error(parse, src):
    with pytest.raises(ParseError) as info:
        parse(src)
    err = info.value
    assert str(err).startswith("term nested too deeply")
    # the error points at the f( that crosses the limit
    assert _at(src, err.line, err.col).startswith("f(")
    assert src.split("\n")[err.line - 1][: err.col - 1].count("(") == MAX_DEPTH + 1


@pytest.mark.parametrize(
    "src",
    [
        "[" * 3000 + "]" * 3000,
        "- " * 3000 + "1",
        "\\+ " * 3000 + "a",
        "(" * 3000 + "a" + ")" * 3000,
    ],
    ids=["lists", "minus", "negation", "parentheses"],
)
def test_every_nesting_form_is_limited(src):
    with pytest.raises(ParseError, match="term nested too deeply"):
        parse_query(src)


def test_nesting_up_to_the_limit_parses():
    t = parse_term("f(" * MAX_DEPTH + "a" + ")" * MAX_DEPTH)
    for _ in range(MAX_DEPTH):
        assert isinstance(t, Struct) and t.functor == "f"
        t = t.args[0]
    assert t == Atom("a")


def test_long_flat_terms_need_no_depth():
    items = ", ".join(["a"] * 5000)
    (goal,) = parse_query(f"len([{items}], N)")
    assert goal.args[0].size == 2 * 5000 + 1
    assert parse_term(" + ".join(["1"] * 5000)).size == 2 * 5000 - 1


def test_equal_constants_share_one_object():
    (cl,) = parse_program("p(sam, 3, sam, 3, X, X).")
    a, i, b, j, x, y = cl.head.args
    assert a is b and a == Atom("sam")
    assert i is j and i == Int(3)
    assert x is y and isinstance(x, Var)


#: recorded from the token-object parser this one replaced: 391
#: variable occurrences, the last fresh id 166
VAR_IDS = (391, 166, "48cdbb75004bb37f81db9cacf7d2940740d492d628c94b4e3789dfc7bf0a0a90")


def test_variable_id_sequence_is_pinned():
    """After reset_var_counter(), parsing every golden workload source
    in name order assigns the recorded variable ids, occurrence by
    occurrence."""
    sources = [workload_source(f) for _, f in sorted({**WORKLOADS, **LARGE_WORKLOADS}.items())]
    reset_var_counter()
    ids: list[int] = []

    def walk(t):
        if isinstance(t, Var):
            ids.append(t.id)
        elif isinstance(t, Struct):
            for a in t.args:
                walk(a)

    for src in sources:
        for cl in parse_program(src):
            for t in (cl.head, *cl.body):
                walk(t)
    digest = hashlib.sha256(json.dumps(ids).encode()).hexdigest()
    assert (len(ids), max(ids), digest) == VAR_IDS
