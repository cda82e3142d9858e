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
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import ClassVar, NamedTuple, Sequence

from .terms import NIL, Atom, Int, Struct, Term, Var, make_list

__all__ = [
    "Clause",
    "ParseError",
    "Token",
    "tokenize",
    "parse_program",
    "parse_term",
    "parse_query",
    "parse_clause",
    "format_clause",
]


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


# One alternative per token class, tried in this order at each position.
# Only decimal digits (``\d``, what ``int()`` accepts) make an int.  A word
# may start with any word character but a digit; the loop refuses the
# ones that are not letters (``²``, ``½``), as it refuses ``@``.
_TOKEN = re.compile(
    r"(?P<layout>[ \t\r\n]+)"
    r"|(?P<comment>%[^\n]*|/\*.*?\*/)"
    r"|(?P<quoted>'[^']*')"
    r"|(?P<open>/\*|')"
    r"|(?P<int>\d+)"
    r"|(?P<word>[^\W\d]\w*)"
    r"|(?P<punct>=:=|=\\=|\\==|:-|\?-|\\\+|\\=|=<|>=|==|//|->|[()\[\]|,.!;+\-*/<>=])"
    r"|(?P<bad>.)",
    re.S,
)
_UNTERMINATED = {"/*": "unterminated block comment", "'": "unterminated quoted atom"}


def tokenize(src: str) -> list[Token]:
    """Tokenize ``src`` into a list of tokens ending with an ``end`` token."""
    toks: list[Token] = []
    add = toks.append
    new = tuple.__new__  # Token(...) without the NamedTuple __new__ frame
    line, start = 1, 0  # start: offset of the current line's first character
    for m in _TOKEN.finditer(src):
        kind, text = m.lastgroup, m.group()
        col = m.start() - start + 1
        if kind == "punct" or kind == "int":
            add(new(Token, (kind, text, line, col)))
            continue
        if kind == "word":
            c = text[0]
            if c != "_" and not c.isalpha():
                raise ParseError(f"unexpected character {c!r}", line, col)
            add(new(Token, ("var" if c == "_" or c.isupper() else "atom", text, line, col)))
            continue
        if kind == "quoted":
            add(new(Token, ("atom", text[1:-1], line, col)))
        elif kind == "open":
            raise ParseError(_UNTERMINATED[text], line, col)
        elif kind == "bad":
            raise ParseError(f"unexpected character {text!r}", line, col)
        if "\n" in text:
            line += text.count("\n")
            start = m.start() + text.rindex("\n") + 1
    add(Token("end", "", line, len(src) - start + 1))
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

    def __str__(self) -> str:
        return format_clause(self)


def format_clause(clause: Clause) -> str:
    """Render a clause back to Edinburgh syntax."""
    if clause.is_fact:
        return f"{clause.head}."
    body = ", ".join(str(g) for g in clause.body)
    return f"{clause.head} :- {body}."


class _Parser:
    """Recursive-descent parser with operator-precedence expressions."""

    # priority table (higher binds looser), standard Prolog xfx/yfx subset
    _INFIX: ClassVar[dict[str, tuple[int, str]]] = {
        "is": (700, "xfx"),
        "=": (700, "xfx"),
        "\\=": (700, "xfx"),
        "==": (700, "xfx"),
        "\\==": (700, "xfx"),
        "<": (700, "xfx"),
        ">": (700, "xfx"),
        "=<": (700, "xfx"),
        ">=": (700, "xfx"),
        "=:=": (700, "xfx"),
        "=\\=": (700, "xfx"),
        "+": (500, "yfx"),
        "-": (500, "yfx"),
        "*": (400, "yfx"),
        "/": (400, "yfx"),
        "//": (400, "yfx"),
        "mod": (400, "yfx"),
    }

    def __init__(self, tokens: Sequence[Token]):
        self.toks = tokens
        self.pos = 0
        self.varmap: dict[str, Var] = {}

    # -- token helpers ---------------------------------------------------
    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, text: str) -> Token:
        t = self.next()
        if t.text != text:
            raise ParseError(f"expected {text!r}, found {t.text!r}", t.line, t.col)
        return t

    def at_punct(self, text: str) -> bool:
        t = self.peek()
        return t.kind == "punct" and t.text == text

    # -- grammar ----------------------------------------------------------
    def clause(self) -> Clause:
        """clause := term ( ':-' goals )? '.'"""
        self.varmap = {}
        head = self.expr(699)
        body: tuple[Term, ...] = ()
        if self.at_punct(":-"):
            self.next()
            body = tuple(self.goals())
        self.expect(".")
        return Clause(head, body)

    def query(self) -> tuple[Term, ...]:
        """query := ('?-')? goals '.'"""
        self.varmap = {}
        if self.at_punct("?-"):
            self.next()
        goals = tuple(self.goals())
        if self.at_punct("."):
            self.next()
        return goals

    def goals(self) -> list[Term]:
        out = [self.expr(999)]
        while self.at_punct(","):
            self.next()
            out.append(self.expr(999))
        return out

    def expr(self, max_prio: int) -> Term:
        left = self.primary()
        while True:
            t = self.peek()
            key = t.text
            if t.kind not in ("punct", "atom") or key not in self._INFIX:
                return left
            prio, kind = self._INFIX[key]
            if prio > max_prio:
                return left
            self.next()
            # both xfx and yfx take a strictly tighter right operand; the
            # loop itself provides left associativity for yfx
            right = self.expr(prio - 1)
            left = Struct(key, (left, right))

    def primary(self) -> Term:
        t = self.next()
        if t.kind == "int":
            return Int(int(t.text))
        if t.kind == "var":
            if t.text == "_":
                return Var("_")
            v = self.varmap.get(t.text)
            if v is None:
                v = Var(t.text)
                self.varmap[t.text] = v
            return v
        if t.kind == "atom":
            if self.at_punct("("):
                self.next()
                args = [self.expr(999)]
                while self.at_punct(","):
                    self.next()
                    args.append(self.expr(999))
                self.expect(")")
                return Struct(t.text, tuple(args))
            return Atom(t.text)
        if t.kind == "punct":
            if t.text == "(":
                inner = self.expr(1200)
                self.expect(")")
                return inner
            if t.text == "[":
                return self.list_tail()
            if t.text == "-":
                arg = self.primary()
                if isinstance(arg, Int):
                    return Int(-arg.value)
                return Struct("-", (Int(0), arg))
            if t.text == "\\+":
                # negation as failure: prefix, priority 900 (fy)
                return Struct("\\+", (self.expr(900),))
            if t.text == "!":
                return Atom("!")
        raise ParseError(f"unexpected token {t.text!r}", t.line, t.col)

    def list_tail(self) -> Term:
        if self.at_punct("]"):
            self.next()
            return NIL
        items = [self.expr(999)]
        while self.at_punct(","):
            self.next()
            items.append(self.expr(999))
        tail: Term = NIL
        if self.at_punct("|"):
            self.next()
            tail = self.expr(999)
        self.expect("]")
        return make_list(items, tail)


def parse_term(src: str) -> Term:
    """Parse a single term (no trailing '.')."""
    p = _Parser(tokenize(src))
    term = p.expr(1200)
    t = p.peek()
    if t.kind != "end" and not (t.kind == "punct" and t.text == "."):
        raise ParseError(f"trailing input {t.text!r}", t.line, t.col)
    return term


def parse_clause(src: str) -> Clause:
    """Parse a single clause terminated with '.'."""
    p = _Parser(tokenize(src))
    cl = p.clause()
    t = p.peek()
    if t.kind != "end":
        raise ParseError(f"trailing input {t.text!r}", t.line, t.col)
    return cl


def parse_query(src: str) -> tuple[Term, ...]:
    """Parse a query: optional '?-' prefix, comma-separated goals."""
    p = _Parser(tokenize(src))
    goals = p.query()
    t = p.peek()
    if t.kind != "end":
        raise ParseError(f"trailing input {t.text!r}", t.line, t.col)
    return goals


def parse_program(src: str) -> list[Clause]:
    """Parse a whole program: a sequence of clauses."""
    toks = tokenize(src)
    p = _Parser(toks)
    out: list[Clause] = []
    while p.peek().kind != "end":
        out.append(p.clause())
    return out
