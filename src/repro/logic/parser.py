"""Parser for the Prolog subset used throughout the reproduction.

The paper's figure 1 gives programs in Edinburgh syntax::

    gf(X,Z) :- f(X,Y), f(Y,Z).
    f(curt, elain).
    ?- gf(sam, G).

We parse that subset plus what the workloads need:

* facts, rules (``Head :- Body``), and queries (``?- Goals``);
* atoms, integers, variables (capitalised or ``_``-prefixed);
* compound terms, lists ``[a, b | T]``;
* infix operators with standard priorities: ``is``, ``=``, ``\\=``,
  ``==``, ``\\==``, ``<``, ``>``, ``=<``, ``>=``, ``=:=``, ``=\\=``,
  arithmetic ``+ - * // mod``, and unary minus;
* ``%`` line comments and ``/* ... */`` block comments;
* quoted atoms ``'like this'``.

Variables with the same name within one clause share a
:class:`~repro.logic.terms.Var`; across clauses they are distinct
(clause-local scoping, as in Prolog).

One regular expression scans the source into a flat list of token
texts, and one recursive descent indexes that list.  A token's kind is
read off its first character where the descent needs it; a line and
column are computed only when a :class:`ParseError` is raised.  Terms
nested deeper than :data:`MAX_DEPTH` levels are a syntax error, not a
``RecursionError``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import NamedTuple

from .terms import NIL, Atom, Int, Struct, Term, Var, make_list
from .unify import ClauseTemplate

__all__ = [
    "Clause",
    "ParseError",
    "Token",
    "MAX_DEPTH",
    "tokenize",
    "parse_program",
    "parse_term",
    "parse_query",
    "parse_clause",
    "format_clause",
]

#: deepest term nesting the parser accepts: each argument list,
#: parenthesis, list item, operand and prefix operator is one level
MAX_DEPTH = 256


class ParseError(ValueError):
    """Raised on any syntax error, with line/column info."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(f"{message} (line {line}, col {col})")
        self.line = line
        self.col = col


class Token(NamedTuple):
    """One token; ``kind`` is atom, var, int, punct or end."""

    kind: str
    text: str
    line: int
    col: int


# Layout and comments are skipped, then group 1 takes one token, or
# nothing at the end of the text: ``findall`` returns that as "", the
# end token.  Some alternative always matches after the layout, so the
# layout is never given back.  Alternatives are tried in order: word,
# the common punctuation, int, the rest of the punctuation, quoted atom,
# and the scan errors.  A ``/*`` left after the layout has no end, and
# takes the rest of the text (it is tried before ``/``), as does a
# ``'`` with no closing quote; anything else is one bad character.
# Only decimal digits (``\d``, what ``int()`` accepts) make an int.  A
# word may start with any word character but a digit; one that does
# not start with a letter or ``_`` (``²``, ``½``) is a scan error.
_SCAN = re.compile(
    r"[ \t\r\n]*(?:(?:%[^\n]*|/\*.*?\*/)[ \t\r\n]*)*"
    r"(?:([^\W\d]\w*|[(),]|\d+"
    r"|=:=|=\\=|\\==|:-|\?-|\\\+|\\=|=<|>=|==|//|->|/\*.*|[\[\]|.!;+\-*/<>=]"
    r"|'[^']*'|'.*|.)|\Z)",
    re.S,
)
_PUNCT = frozenset(
    ["=:=", "=\\=", "\\==", ":-", "?-", "\\+", "\\=", "=<", ">=", "==", "//", "->",
     *"()[]|,.!;+-*/<>="]
)


def _char_kind(c: str) -> str:
    """What a token starting with ``c`` is: int, var, atom or other."""
    if c.isdecimal():
        return "int"
    if c == "_":
        return "var"
    if not c.isalpha():
        return "other"
    return "var" if c.isupper() else "atom"


#: first character -> its token kind, for ASCII and the end token ""
_FIRST = {chr(n): _char_kind(chr(n)) for n in range(128)} | {"'": "quoted", "": "other"}


def _kind(text: str) -> str:
    """The kind of a scanned token: atom, var, int, punct, end, or bad
    for a scan error."""
    c = text[:1]
    if not c:
        return "end"
    if c == "'":
        return "atom" if len(text) > 1 and text[-1] == "'" else "bad"
    kind = _char_kind(c)
    if kind != "other":
        return kind
    return "punct" if text in _PUNCT else "bad"


def _scan_error(text: str) -> str:
    """The message of a scan-error token."""
    if text[0] == "'":
        return "unterminated quoted atom"
    if text[:2] == "/*":
        return "unterminated block comment"
    return f"unexpected character {text[0]!r}"


def _shown(text: str) -> str:
    """A token as :class:`Token` and error messages show it."""
    return text[1:-1] if text[:1] == "'" else text


def _offset(src: str, index: int) -> int:
    """The character offset of token ``index`` of ``src``."""
    m = next(islice(_SCAN.finditer(src), index, None))
    return m.end() if m.group(1) is None else m.start(1)


def tokenize(src: str) -> list[Token]:
    """Tokenize ``src`` into a list of tokens ending with an ``end`` token."""
    toks: list[Token] = []
    line, line_start, last, at = 1, 0, 0, 0
    for m in _SCAN.finditer(src):
        text = m.group(1)
        at = m.end() if text is None else m.start(1)
        newlines = src.count("\n", last, at)
        if newlines:
            line += newlines
            line_start = src.rindex("\n", last, at) + 1
        last = at
        if text is None:
            break
        kind = _kind(text)
        if kind == "bad":
            raise ParseError(_scan_error(text), line, at - line_start + 1)
        toks.append(Token(kind, _shown(text), line, at - line_start + 1))
    toks.append(Token("end", "", line, at - line_start + 1))
    return toks


@dataclass(frozen=True)
class Clause:
    """A Horn clause ``head :- body`` (a fact when ``body`` is empty)."""

    head: Term
    body: tuple[Term, ...] = ()

    @property
    def is_fact(self) -> bool:
        return not self.body

    @property
    def indicator(self) -> tuple[str, int]:
        return self.head.indicator

    @cached_property
    def template(self) -> ClauseTemplate:
        """The clause compiled for renaming, built on first use."""
        return ClauseTemplate(self.head, self.body)

    def __str__(self) -> str:
        return format_clause(self)


def format_clause(clause: Clause) -> str:
    """Render a clause back to Edinburgh syntax."""
    if clause.is_fact:
        return f"{clause.head}."
    body = ", ".join(str(g) for g in clause.body)
    return f"{clause.head} :- {body}."


# Infix operators, by token text: (priority, functor).  Higher binds
# looser; the standard Prolog xfx/yfx subset.  A quoted operator name
# (``'is'``) is the operator too.
_INFIX: dict[str, tuple[int, str]] = {
    text: (prio, name)
    for prio, names in (
        (700, "is = \\= == \\== < > =< >= =:= =\\="), (500, "+ -"), (400, "* / // mod")
    )
    for name in names.split()
    for text in (name, f"'{name}'")
}


#: tokens that end an item of :meth:`_Descent.items`: none is an infix
#: operator or '(', so a constant or variable before one is a whole term
_SEPARATORS = frozenset(",)]|.")


class _Descent:
    """One parse: the scanned token texts of ``src`` and a recursive
    descent over them, with operator-precedence expressions.

    Each rule takes the index of its first token and returns what it
    parsed with the index after it.  ``varmap`` holds the current
    clause's variables; ``consts`` shares one :class:`Atom` or
    :class:`Int` per token text across the parse.  Where a closing
    ``.``, ``)`` or ``]`` is expected, the same text quoted (``')'``)
    closes too, as it always has.
    """

    __slots__ = ("src", "toks", "varmap", "consts")

    def __init__(self, src: str):
        self.src = src
        self.toks: list[str] = _SCAN.findall(src)
        self.varmap: dict[str, Var] = {}
        self.consts: dict[str, Term] = {}

    def error(self, message: str, i: int) -> ParseError:
        """The error to raise at token ``i``: a scan error anywhere in
        the source comes first, as :func:`tokenize` raises it."""
        for j, text in enumerate(self.toks):
            if _kind(text) == "bad":
                message, i = _scan_error(text), j
                break
        at = _offset(self.src, i)
        return ParseError(message, self.src.count("\n", 0, at) + 1,
                          at - self.src.rfind("\n", 0, at))

    def expected(self, text: str, i: int) -> ParseError:
        return self.error(f"expected {text!r}, found {_shown(self.toks[i])!r}", i)

    def clause(self, i: int) -> tuple[Clause, int]:
        """clause := term ( ':-' goals )? '.'"""
        self.varmap = {}
        head, i = self.term(i, 699, 0)
        body: tuple[Term, ...] = ()
        if self.toks[i] == ":-":
            body, i = self.goals(i + 1)
        t = self.toks[i]
        if t != "." and t != "'.'":
            raise self.expected(".", i)
        return Clause(head, body), i + 1

    def goals(self, i: int) -> tuple[tuple[Term, ...], int]:
        """goals := items"""
        goals, i = self.items(i, 0)
        return tuple(goals), i

    def items(self, i: int, depth: int) -> tuple[list[Term], int]:
        """items := term ( ',' term )*, each term at priority 999: the
        goals of a body or query, the arguments of a compound, the
        items of a list.  A constant or known variable right before a
        separator is taken without a call."""
        toks, consts, varmap = self.toks, self.consts, self.varmap
        out: list[Term] = []
        while True:
            t = toks[i]
            leaf = consts.get(t) or varmap.get(t)
            if leaf is not None and toks[i + 1] in _SEPARATORS:
                out.append(leaf)
                i += 1
            else:
                item, i = self.term(i, 999, depth)
                out.append(item)
            if toks[i] != ",":
                return out, i
            i += 1

    def term(self, i: int, prio: int, depth: int) -> tuple[Term, int]:
        """term := primary ( infix term )*, binding no looser than ``prio``."""
        if depth > MAX_DEPTH:
            raise self.error("term nested too deeply", i)
        toks = self.toks
        t = toks[i]
        i += 1
        kind = _FIRST.get(t[:1]) or _char_kind(t[:1])
        if kind == "var":
            if t == "_":
                left: Term = Var("_")
            else:
                var = self.varmap.get(t)
                if var is None:
                    var = self.varmap[t] = Var(t)
                left = var
        elif kind == "atom" or (kind == "quoted" and len(t) > 1 and t[-1] == "'"):
            if toks[i] == "(":
                args, i = self.items(i + 1, depth + 1)
                if toks[i] != ")" and toks[i] != "')'":
                    raise self.expected(")", i)
                i += 1
                left = Struct(_shown(t), args)
            else:
                const = self.consts.get(t)
                if const is None:
                    const = self.consts[t] = Atom(_shown(t))
                left = const
        elif kind == "int":
            const = self.consts.get(t)
            if const is None:
                const = self.consts[t] = Int(int(t))
            left = const
        elif t == "(":
            left, i = self.term(i, 1200, depth + 1)
            if toks[i] != ")" and toks[i] != "')'":
                raise self.expected(")", i)
            i += 1
        elif t == "[":
            left, i = self.list_tail(i, depth + 1)
        elif t == "-":
            arg, i = self.term(i, 0, depth + 1)  # a primary: no infix binds at 0
            left = Int(-arg.value) if isinstance(arg, Int) else Struct("-", (Int(0), arg))
        elif t == "\\+":
            # negation as failure: prefix, priority 900 (fy)
            arg, i = self.term(i, 900, depth + 1)
            left = Struct("\\+", (arg,))
        elif t == "!":
            left = Atom("!")
        else:
            raise self.error(f"unexpected token {_shown(t)!r}", i - 1)
        while True:
            op = _INFIX.get(toks[i])
            if op is None or op[0] > prio:
                return left, i
            # both xfx and yfx take a strictly tighter right operand; the
            # loop itself provides left associativity for yfx
            right, i = self.term(i + 1, op[0] - 1, depth + 1)
            left = Struct(op[1], (left, right))

    def list_tail(self, i: int, depth: int) -> tuple[Term, int]:
        """The rest of a list after its '['."""
        toks = self.toks
        if toks[i] == "]":
            return NIL, i + 1
        items, i = self.items(i, depth)
        tail: Term = NIL
        if toks[i] == "|":
            tail, i = self.term(i + 1, 999, depth)
        if toks[i] != "]" and toks[i] != "']'":
            raise self.expected("]", i)
        return make_list(items, tail), i + 1


def parse_term(src: str) -> Term:
    """Parse a single term (no trailing '.')."""
    p = _Descent(src)
    term, i = p.term(0, 1200, 0)
    t = p.toks[i]
    # text after a '.' is ignored, but must scan: error() reports the
    # scan error there instead of this message
    if t and (t != "." or any(_kind(x) == "bad" for x in p.toks[i + 1:])):
        raise p.error(f"trailing input {_shown(t)!r}", i)
    return term


def parse_clause(src: str) -> Clause:
    """Parse a single clause terminated with '.'."""
    p = _Descent(src)
    cl, i = p.clause(0)
    if p.toks[i]:
        raise p.error(f"trailing input {_shown(p.toks[i])!r}", i)
    return cl


def parse_query(src: str) -> tuple[Term, ...]:
    """Parse a query: optional '?-' prefix, comma-separated goals."""
    p = _Descent(src)
    goals, i = p.goals(1 if p.toks[0] == "?-" else 0)
    if p.toks[i] == ".":
        i += 1
    if p.toks[i]:
        raise p.error(f"trailing input {_shown(p.toks[i])!r}", i)
    return goals


def parse_program(src: str) -> list[Clause]:
    """Parse a whole program: a sequence of clauses."""
    p = _Descent(src)
    toks = p.toks
    out: list[Clause] = []
    i = 0
    while toks[i]:
        clause, i = p.clause(i)
        out.append(clause)
    return out
