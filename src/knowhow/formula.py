"""Formula syntax tree, concrete grammar, parser, and printer.

The language has atoms, the falsum constant, negation, implication, and the
two coalition modalities ``K{...}`` (distributed knowledge) and ``H{...}``
(know-how).  Truth ``true`` is sugar for ``!false``; ``false`` is primitive.

Grammar (whitespace insignificant between tokens)::

    formula   := unary ("->" formula)?          # right associative
    unary     := "!" unary
               | "K" coalition unary
               | "H" coalition unary
               | atom
    atom      := "false" | "true" | ident | "(" formula ")"
    coalition := "{" (ident ("," ident)*)? "}"
    ident     := [A-Za-z_][A-Za-z0-9_']*
"""
from __future__ import annotations

import re
from dataclasses import dataclass

Coalition = frozenset[str]


class FormulaSyntaxError(ValueError):
    """Parse failure, with the byte offset and the token set expected there."""

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        self.offset = offset
        self.expected = tuple(sorted(expected))
        if self.expected:
            message = f"{message} at offset {offset}: expected {' or '.join(self.expected)}"
        else:
            message = f"{message} at offset {offset}"
        super().__init__(message)


class NestingError(ValueError):
    """A formula built in code nests deeper than ``MAX_NESTING`` levels."""


class Formula:
    """Base class for formula nodes; trees are immutable and compare structurally.

    ``str`` and ``repr`` fold the tree without recursion (see :func:`_fold`),
    so they print formulas of any depth.
    """

    def __str__(self) -> str:
        return format_formula(self)

    def __repr__(self) -> str:
        return _fold(self, _repr_node)


def _cached_hash(self):
    # structural hashes are precomputed at construction; deep trees and memo
    # tables probe them constantly
    return self._h


@dataclass(frozen=True, repr=False)
class Falsum(Formula):
    __hash__ = _cached_hash

    def __post_init__(self):
        object.__setattr__(self, "_h", hash("Falsum"))


@dataclass(frozen=True, repr=False)
class Atom(Formula):
    name: str

    __hash__ = _cached_hash

    def __post_init__(self):
        object.__setattr__(self, "_h", hash(("Atom", self.name)))


@dataclass(frozen=True, repr=False)
class Not(Formula):
    sub: Formula

    __hash__ = _cached_hash

    def __post_init__(self):
        object.__setattr__(self, "_h", hash(("Not", self.sub)))


@dataclass(frozen=True, repr=False)
class Implies(Formula):
    left: Formula
    right: Formula

    __hash__ = _cached_hash

    def __post_init__(self):
        object.__setattr__(self, "_h", hash(("Implies", self.left, self.right)))


@dataclass(frozen=True, repr=False)
class Know(Formula):
    coalition: Coalition
    sub: Formula

    __hash__ = _cached_hash

    def __post_init__(self):
        object.__setattr__(self, "_h", hash(("Know", self.coalition, self.sub)))


@dataclass(frozen=True, repr=False)
class How(Formula):
    coalition: Coalition
    sub: Formula

    __hash__ = _cached_hash

    def __post_init__(self):
        object.__setattr__(self, "_h", hash(("How", self.coalition, self.sub)))


#: ``true`` desugars to this node.
TOP = Not(Falsum())

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")

_KEYWORDS = {"true", "false"}

# token kinds
_ARROW, _BANG, _LBRACE, _RBRACE, _LPAREN, _RPAREN, _COMMA, _IDENT, _TRUE, _FALSE, _EOF = (
    "'->'", "'!'", "'{'", "'}'", "'('", "')'", "','", "identifier", "'true'", "'false'",
    "end of input",
)

_PUNCT = {
    "->": _ARROW,
    "!": _BANG,
    "{": _LBRACE,
    "}": _RBRACE,
    "(": _LPAREN,
    ")": _RPAREN,
    ",": _COMMA,
}


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    offset: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if text.startswith("->", i):
            tokens.append(_Token(_ARROW, "->", i))
            i += 2
            continue
        if ch in "!{}(),":
            tokens.append(_Token(_PUNCT[ch], ch, i))
            i += 1
            continue
        m = IDENT_RE.match(text, i)
        if m:
            word = m.group()
            if word == "true":
                tokens.append(_Token(_TRUE, word, i))
            elif word == "false":
                tokens.append(_Token(_FALSE, word, i))
            else:
                tokens.append(_Token(_IDENT, word, i))
            i = m.end()
            continue
        raise FormulaSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(_Token(_EOF, "", n))
    return tokens


_UNARY_START = (_BANG, _IDENT, _TRUE, _FALSE, _LPAREN)

#: Deepest operand nesting ``parse`` accepts.  Every ``!``, ``K{..}``,
#: ``H{..}``, ``->`` and ``(`` opens one level for the operand after it, so
#: ``"!" * MAX_NESTING + "p"`` is the deepest chain of negations.  The parser
#: and the checker recurse per level, the checker up to five frames per
#: ``H{..}``, so a formula of any shape at this bound still runs under
#: Python's default recursion limit of 1000.  Deeper text fails as a syntax
#: error instead of a RecursionError, and the checker refuses deeper formulas
#: built in code (see :func:`nesting`); the printer has no such limit.
MAX_NESTING = 150


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise FormulaSyntaxError("syntax error", tok.offset, (kind,))
        return self.advance()

    def nested(self, parse_operand, opener: _Token) -> Formula:
        """Parse the operand that ``opener`` introduces, one level deeper."""
        if self.depth == MAX_NESTING:
            raise FormulaSyntaxError(
                f"formula nests deeper than {MAX_NESTING} levels", opener.offset)
        self.depth += 1
        operand = parse_operand()
        self.depth -= 1
        return operand

    def formula(self) -> Formula:
        left = self.unary()
        if self.peek().kind == _ARROW:
            arrow = self.advance()
            return Implies(left, self.nested(self.formula, arrow))
        return left

    def unary(self) -> Formula:
        tok = self.peek()
        if tok.kind == _BANG:
            self.advance()
            return Not(self.nested(self.unary, tok))
        if tok.kind == _IDENT and tok.text in ("K", "H") and self.peek(1).kind == _LBRACE:
            self.advance()
            coalition = self.coalition()
            sub = self.nested(self.unary, tok)
            return Know(coalition, sub) if tok.text == "K" else How(coalition, sub)
        return self.atom()

    def atom(self) -> Formula:
        tok = self.peek()
        if tok.kind == _FALSE:
            self.advance()
            return Falsum()
        if tok.kind == _TRUE:
            self.advance()
            return Not(Falsum())
        if tok.kind == _IDENT:
            self.advance()
            return Atom(tok.text)
        if tok.kind == _LPAREN:
            self.advance()
            inner = self.nested(self.formula, tok)
            self.expect(_RPAREN)
            return inner
        raise FormulaSyntaxError("syntax error", tok.offset, _UNARY_START)

    def coalition(self) -> Coalition:
        self.expect(_LBRACE)
        members: set[str] = set()
        if self.peek().kind == _RBRACE:
            self.advance()
            return frozenset()
        while True:
            tok = self.expect(_IDENT)
            if tok.text in members:
                raise FormulaSyntaxError(
                    f"duplicate agent {tok.text!r} in coalition", tok.offset)
            members.add(tok.text)
            tok = self.peek()
            if tok.kind == _COMMA:
                self.advance()
                continue
            if tok.kind == _RBRACE:
                self.advance()
                return frozenset(members)
            raise FormulaSyntaxError("syntax error", tok.offset, (_COMMA, _RBRACE))


def parse(text: str) -> Formula:
    """Parse ``text`` into a formula; raise FormulaSyntaxError on bad input."""
    parser = _Parser(text)
    f = parser.formula()
    tok = parser.peek()
    if tok.kind != _EOF:
        raise FormulaSyntaxError("syntax error", tok.offset, (_ARROW, _EOF))
    return f


def format_coalition(coalition: Coalition) -> str:
    return "{%s}" % ",".join(sorted(coalition))


def format_formula(f: Formula) -> str:
    """Print ``f`` with minimal parentheses; ``parse(format_formula(f)) == f``.

    Coalition members come out sorted; ``!false`` prints as ``true``.
    """
    return _fold(f, _format_node)


def _slot(sub: Formula, text: str) -> str:
    # a unary operand slot; a bare implication there would be misparsed
    return "(" + text + ")" if isinstance(sub, Implies) else text


def _format_node(g: Formula, texts: list[str]) -> str:
    if isinstance(g, Atom):
        return g.name
    if isinstance(g, Falsum):
        return "false"
    if isinstance(g, Not):
        if isinstance(g.sub, Falsum):  # TOP
            return "true"
        return "!" + _slot(g.sub, texts[0])
    if isinstance(g, Know):
        return "K" + format_coalition(g.coalition) + " " + _slot(g.sub, texts[0])
    if isinstance(g, How):
        return "H" + format_coalition(g.coalition) + " " + _slot(g.sub, texts[0])
    return _slot(g.left, texts[0]) + " -> " + texts[1]  # Implies


def _repr_node(g: Formula, texts: list[str]) -> str:
    if isinstance(g, Falsum):
        return "Falsum()"
    if isinstance(g, Atom):
        return f"Atom({g.name!r})"
    if isinstance(g, Not):
        return f"Not({texts[0]})"
    if isinstance(g, Implies):
        return f"Implies({texts[0]}, {texts[1]})"
    return f"{type(g).__name__}({set(g.coalition) or '{}'}, {texts[0]})"  # Know, How


def _operands(f: Formula) -> tuple[Formula, ...]:
    if isinstance(f, (Falsum, Atom)):
        return ()
    if isinstance(f, Implies):
        return (f.left, f.right)
    if isinstance(f, (Not, Know, How)):
        return (f.sub,)
    raise TypeError(f"not a formula: {f!r}")


def _fold(f: Formula, combine):
    """``combine(g, values)`` for every node object ``g`` of ``f``, where
    ``values`` are the results for ``g``'s operands; returns ``f``'s result.

    Works bottom-up with an explicit stack, once per node object, so it also
    folds formulas far too deep for the recursive functions of this module,
    and a shared subformula costs once.
    """
    done: dict[int, object] = {}  # id(node) -> the node's result
    stack = [(f, _operands(f))]
    while stack:
        g, operands = stack[-1]
        for sub in operands:
            if id(sub) not in done:
                stack.append((sub, _operands(sub)))
                break
        else:
            stack.pop()
            done[id(g)] = combine(g, [done[id(sub)] for sub in operands])
    return done[id(f)]


def h_depth(f: Formula) -> int:
    """Maximum nesting of know-how operators along any root-to-leaf path."""
    return _fold(f, lambda g, depths: isinstance(g, How) + max(depths, default=0))


def _text_nesting(g: Formula, heights: list[int]) -> int:
    if g == TOP or not heights:  # ``!false`` prints as ``true``
        return 0
    if isinstance(g, Implies):
        # a left implication needs parentheses, a right one does not
        return max(isinstance(g.left, Implies) + heights[0], 1 + heights[1])
    return 1 + isinstance(g.sub, Implies) + heights[0]


def nesting(f: Formula) -> int:
    """Deepest operand nesting of ``format_formula(f)``, counted as ``parse``
    counts it.

    The printed text has the fewest parentheses that parse back to ``f``, so
    a formula that ``parse`` returned never measures above ``MAX_NESTING``.
    Like :func:`h_depth` and :func:`uses_empty_coalition` it visits each
    node object once, without recursion.
    """
    return _fold(f, _text_nesting)


def uses_empty_coalition(f: Formula) -> bool:
    """True iff some K or H node in ``f`` carries the empty coalition."""
    return _fold(f, lambda g, used: any(used) or (
        isinstance(g, (Know, How)) and not g.coalition))


def subformulas(f: Formula):
    """Yield every node of ``f`` (including ``f`` itself), parents first."""
    yield f
    for sub in _operands(f):
        yield from subformulas(sub)
