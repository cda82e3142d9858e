"""Parser golden: tokens, parsed terms and syntax errors are pinned.

Every program source the workload generators build, plus a seeded
random corpus of well-formed, mutated and hand-picked inputs (comments,
quoted atoms, non-ASCII letters and digits, malformed text), is run
through :func:`tokenize` and the four parse entry points and compared
against ``golden/parser_golden.json``:

* the token tuples ``(kind, text, line, col)``;
* the ``str()`` of every parsed clause or term, and its variable
  sharing (which occurrences are the same variable);
* for bad input, the exception class, message, line and column.

The golden was recorded from the character-at-a-time tokenizer that
the master-regex one replaced.  One deviation is listed, and checked
instead of the recorded value: the old tokenizer took any ``isdigit``
character (``²``, ``①``) into an ``int`` token that ``int()`` then
rejected with a bare ``ValueError``.  Such an input is now a
``ParseError`` at that character.  To re-record the golden
deliberately (only when a change is *meant* to alter parsing)::

    PYTHONPATH=src python tests/test_parser_golden.py --record
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from repro.logic.parser import (
    ParseError,
    parse_clause,
    parse_program,
    parse_query,
    parse_term,
    tokenize,
)
from repro.logic.program import Program
from repro.logic.terms import Struct, Term, Var, reset_var_counter
from repro.workloads import (
    comb_tree,
    deriv_program,
    family_program,
    grid_program,
    hanoi_program,
    map_coloring_program,
    nqueens_program,
    nrev_program,
    puzzle_program,
    random_digraph_program,
    scaled_family,
    synthetic_tree,
)

GOLDEN = Path(__file__).parent / "golden" / "parser_golden.json"

#: name -> zero-argument factory that builds its program from source
WORKLOADS = {
    "figure1": family_program,
    "family_g3": lambda: scaled_family(generations=3, seed=5),
    "hanoi": hanoi_program,
    "nrev": nrev_program,
    "deriv": deriv_program,
    "puzzle": puzzle_program,
    "queens4": lambda: nqueens_program(4),
    "queens6": lambda: nqueens_program(6),
    "digraph": lambda: random_digraph_program(n_nodes=8, seed=2),
    "grid3": lambda: grid_program(3, 3),
    "mapcolor": map_coloring_program,
    "synthetic": lambda: synthetic_tree(branching=2, depth=3, dead_fraction=0.3, seed=4),
    "comb": lambda: comb_tree(teeth=3, tooth_depth=2),
}
#: the perfbench-sized family: pinned by digest, it is 77 KB of source
LARGE_WORKLOADS = {
    "family_perfbench": lambda: scaled_family(
        generations=6, children_per_couple=3, couples_per_generation=48, seed=1
    ),
}

HAND_PICKED = [
    "f(², X)",
    "f(x², X)",
    "p(1²).",
    "q(٣, １２).",
    "½",
    "r(①).",
    "Ⅻ(a).",
    "xⅫ(Ⅻy).",
    "émile(X) :- straße(X, Ñandú).",
    "ǅx(Ǆ, λ).",
    "a b.",
    "a\fb.",
    "a\vb.",
    "'unterminated",
    "a. /* open",
    "a :- b",
    "?- f(X), g(X, _, _).",
    "X = 'it''s'.",
    "'multi\nline' :- a.",
    "a.%end",
    "a./*x*/b.",
    "f(a).\r\ng(b).",
    "x :- y ; z -> w.",
    "p(X) :- X =:= 1+2*3-4//5 mod 6, X =\\= -7, \\+ q(X), !.",
    "t([a, b | T], T).",
    "t([], [|]).",
    "1.5.",
    "f(a) g(b).",
    "@",
    ":",
    "?",
    "",
]

_ATOMS = ["a", "foo", "élan", "ñandú", "straße", "λx", "x²", "mod", "is", "ǅz", "日本"]
_VARS = ["X", "Y1", "_", "_g", "Émile", "Ω", "Σx"]
_INTS = ["0", "42", "٣", "１２", "007"]
_QUOTED = ["'hello world'", "'a\nb'", "''", "'%not a comment'", "'é'"]
_OPS = [
    "=", "\\=", "==", "\\==", "<", ">", "=<", ">=", "=:=", "=\\=",
    "+", "-", "*", "/", "//", "mod", "is",
]
_NOISE = [
    "@", "#", "$", "½", "²", "\f", "\xa0",
    "?", ":", "\\", '"', "`", "~", "&", "^", "\u2028", "①",
]
_LAYOUT = [" ", "\n", "\t", "\r\n", "  % note\n", "/* c\n c */", "/**/"]


def _term(rng: random.Random, depth: int) -> str:
    roll = rng.random()
    if depth <= 0 or roll < 0.35:
        return rng.choice(_ATOMS + _VARS + _INTS + _QUOTED)
    if roll < 0.55:
        return f"{_term(rng, depth - 1)} {rng.choice(_OPS)} {_term(rng, depth - 1)}"
    if roll < 0.7:
        items = ", ".join(_term(rng, depth - 1) for _ in range(rng.randint(0, 3)))
        tail = f" | {rng.choice(_VARS)}" if items and rng.random() < 0.4 else ""
        return f"[{items}{tail}]"
    if roll < 0.78:
        return f"-{_term(rng, depth - 1)}"
    args = ", ".join(_term(rng, depth - 1) for _ in range(rng.randint(1, 3)))
    return f"{rng.choice(_ATOMS)}({args})"


def _clause(rng: random.Random) -> str:
    head = _term(rng, 2)
    if rng.random() < 0.5:
        return f"{head}."
    body = ", ".join(_term(rng, 2) for _ in range(rng.randint(1, 3)))
    return f"{head}{rng.choice(_LAYOUT)}:- {body}."


def _mutate(rng: random.Random, text: str) -> str:
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(chars) + 1)
        roll = rng.random()
        if roll < 0.4 and chars:
            del chars[min(at, len(chars) - 1)]
        elif roll < 0.8:
            chars.insert(at, rng.choice(_NOISE + ["(", ")", "[", "]", ",", ".", "'", "|"]))
        else:
            chars.insert(at, rng.choice(_LAYOUT))
    return "".join(chars)


def corpus(seed: int = 12, size: int = 160) -> list[str]:
    """The seeded random corpus: whole programs, about a third mutated."""
    rng = random.Random(seed)
    out = []
    for _ in range(size):
        text = rng.choice(_LAYOUT).join(_clause(rng) for _ in range(rng.randint(1, 4)))
        if rng.random() < 0.35:
            text = _mutate(rng, text)
        out.append(text)
    return out


def _sharing(terms: list[Term]) -> list[int]:
    """Variable occurrences, each named by the index of its first one."""
    first: dict[int, int] = {}
    out: list[int] = []

    def walk(t: Term) -> None:
        if isinstance(t, Var):
            out.append(first.setdefault(t.id, len(first)))
        elif isinstance(t, Struct):
            for a in t.args:
                walk(a)

    for t in terms:
        walk(t)
    return out


def _error(exc: Exception) -> dict:
    return {
        "error": type(exc).__name__,
        "message": str(exc),
        "line": getattr(exc, "line", None),
        "col": getattr(exc, "col", None),
    }


def _parsed(fn, text: str) -> dict:
    reset_var_counter()
    try:
        out = fn(text)
    except (ParseError, ValueError) as exc:
        return _error(exc)
    if fn is parse_term:
        return {"str": [str(out)], "sharing": _sharing([out])}
    if fn is parse_query:
        return {"str": [str(g) for g in out], "sharing": _sharing(list(out))}
    clauses = [out] if fn is parse_clause else out
    return {
        "str": [str(c) for c in clauses],
        "sharing": [_sharing([c.head, *c.body]) for c in clauses],
    }


def _tokens(text: str) -> list[list]:
    return [[t.kind, t.text, t.line, t.col] for t in tokenize(text)]


def record_text(text: str) -> dict:
    """Everything the parser does with ``text``, JSON-ready.

    When tokenizing fails, the tokens of the text before the error are
    kept too."""
    try:
        tokens: object = _tokens(text)
    except ParseError as exc:
        lines = text.split("\n")
        offset = sum(len(s) + 1 for s in lines[: exc.line - 1]) + exc.col - 1
        tokens = {**_error(exc), "before": _tokens(text[:offset])[:-1]}
    return {
        "src": text,
        "tokens": tokens,
        "program": _parsed(parse_program, text),
        "clause": _parsed(parse_clause, text),
        "query": _parsed(parse_query, text),
        "term": _parsed(parse_term, text),
    }


def _digest(value: object) -> str:
    return hashlib.sha256(json.dumps(value, ensure_ascii=False).encode()).hexdigest()


def workload_source(factory) -> str:
    """The source text ``factory`` hands to :meth:`Program.from_source`."""
    seen: list[str] = []
    build = Program.from_source.__func__

    def spy(cls, src: str) -> Program:
        seen.append(src)
        return build(cls, src)

    Program.from_source = classmethod(spy)  # type: ignore[method-assign]
    try:
        factory()
    finally:
        Program.from_source = classmethod(build)  # type: ignore[method-assign]
    assert len(seen) == 1
    return seen[0]


def record_large(text: str) -> dict:
    full = record_text(text)
    return {
        "chars": len(text),
        "tokens": len(full["tokens"]),
        "clauses": len(full["program"]["str"]),
        "digest": {k: _digest(v) for k, v in full.items() if k in ("tokens", "program")},
    }


def record_all() -> dict:
    return {
        "workloads": {n: record_text(workload_source(f)) for n, f in WORKLOADS.items()},
        "large": {n: record_large(workload_source(f)) for n, f in LARGE_WORKLOADS.items()},
        "hand_picked": [record_text(t) for t in HAND_PICKED],
        "corpus": [record_text(t) for t in corpus()],
    }


def _bad_digit(rec: dict) -> tuple[int, int] | None:
    """Where a recorded ``int`` token holds a non-decimal digit, if any.

    This is the one listed deviation from the golden (see the module
    docstring); it returns that character's line and column."""
    tokens = rec["tokens"]
    for kind, text, line, col in tokens if isinstance(tokens, list) else tokens["before"]:
        if kind == "int" and not text.isdecimal():
            at = next(i for i, c in enumerate(text) if not c.isdecimal())
            return line, col + at
    return None


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def _check(rec: dict) -> None:
    text = rec["src"]
    bad = _bad_digit(rec)
    if bad is None:
        assert record_text(text) == rec
        return
    ch = text.split("\n")[bad[0] - 1][bad[1] - 1]
    for fn in (tokenize, parse_program, parse_clause, parse_query, parse_term):
        with pytest.raises(ParseError) as info:
            fn(text)
        assert (info.value.line, info.value.col) == bad
        assert str(info.value).startswith(f"unexpected character {ch!r}")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_source(golden, name):
    _check(golden["workloads"][name])


@pytest.mark.parametrize("name", sorted(LARGE_WORKLOADS))
def test_large_workload_source(golden, name):
    assert record_large(workload_source(LARGE_WORKLOADS[name])) == golden["large"][name]


def test_hand_picked(golden):
    assert [r["src"] for r in golden["hand_picked"]] == HAND_PICKED
    for rec in golden["hand_picked"]:
        _check(rec)


def test_random_corpus(golden):
    assert [r["src"] for r in golden["corpus"]] == corpus()
    for rec in golden["corpus"]:
        _check(rec)


def test_corpus_covers_the_hazards(golden):
    """The corpus exercises what the golden is there to pin."""
    recs = golden["hand_picked"] + golden["corpus"]
    srcs = "".join(r["src"] for r in recs)
    for needle in ("%", "/*", "'", "é", "٣", "²", "Ω"):
        assert needle in srcs
    assert sum(isinstance(r["tokens"], dict) for r in recs) >= 10
    assert sum("error" in r["program"] for r in recs) >= 30
    assert sum("error" not in r["program"] for r in recs) >= 60
    assert sum(_bad_digit(r) is not None for r in recs) >= 3


if __name__ == "__main__" and "--record" in sys.argv:
    doc = json.dumps(record_all(), ensure_ascii=False, separators=(",", ":"))
    GOLDEN.write_text(doc + "\n", encoding="utf-8")
    print(f"recorded {GOLDEN}")
