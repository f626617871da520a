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

Whitespace is what ``str.isspace`` accepts.  :func:`parse` scans the text
once with one compiled regular expression into ``(kind, text, offset)``
tuples ending in an end-of-input token, then a recursive-descent parser
reads them by index, one call per operand level (see ``MAX_NESTING``).
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

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

# token kinds
_ARROW, _BANG, _LBRACE, _RBRACE, _LPAREN, _RPAREN, _COMMA, _IDENT, _TRUE, _FALSE, _EOF = (
    "'->'", "'!'", "'{'", "'}'", "'('", "')'", "','", "identifier", "'true'", "'false'",
    "end of input",
)

# the kind of every token text that is not an identifier
_KINDS = {
    "->": _ARROW, "!": _BANG, "{": _LBRACE, "}": _RBRACE, "(": _LPAREN, ")": _RPAREN,
    ",": _COMMA, "true": _TRUE, "false": _FALSE,
}

# group 1 is a token; group 2 is any other character that is not whitespace.
# ``finditer`` steps over the positions where neither matches, which are the
# ``\s`` characters: for ``str`` patterns exactly those that ``str.isspace``
# accepts.
_SCANNER = re.compile(r"(->|[!{}(),]|" + IDENT_RE.pattern + r")|(\S)")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """The ``(kind, text, offset)`` tokens of ``text``, then an end-of-input
    token, so the parser can look one token past any token but the last."""
    tokens = []
    for m in _SCANNER.finditer(text):
        word = m.group()
        if m.lastindex == 2:
            raise FormulaSyntaxError(f"unexpected character {word!r}", m.start())
        tokens.append((_KINDS.get(word, _IDENT), word, m.start()))
    tokens.append((_EOF, "", len(text)))
    return tokens


_UNARY_START = (_BANG, _IDENT, _TRUE, _FALSE, _LPAREN)

#: Deepest operand nesting ``parse`` accepts.  Every ``!``, ``K{..}``,
#: ``H{..}``, ``->`` and ``(`` opens one level for the operand after it, so
#: ``"!" * MAX_NESTING + "p"`` is the deepest chain of negations.  The parser
#: reads the token tuples by index but still recurses once per level, and the
#: checker recurses up to five frames per ``H{..}``, so a formula of any shape
#: at this bound still runs under Python's default recursion limit of 1000.
#: Deeper text fails as a syntax error instead of a RecursionError, and the
#: checker refuses deeper formulas built in code (see :func:`nesting`); the
#: printer has no such limit.
MAX_NESTING = 150


def _deeper(depth: int, opener_offset: int) -> int:
    """The depth of the operand that the token at ``opener_offset`` opens."""
    if depth == MAX_NESTING:
        raise FormulaSyntaxError(
            f"formula nests deeper than {MAX_NESTING} levels", opener_offset)
    return depth + 1


class _Parser:
    """Recursive descent over the token tuples of one text.

    ``pos`` indexes the next unread token; the end-of-input token is never
    read past.  A method's ``depth`` argument counts the operand levels
    open around the text it reads.
    """

    __slots__ = ("tokens", "pos")

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def formula(self, depth: int) -> Formula:
        left = self.unary(depth)
        kind, _, offset = self.tokens[self.pos]
        if kind != _ARROW:
            return left
        self.pos += 1
        return Implies(left, self.formula(_deeper(depth, offset)))

    def unary(self, depth: int) -> Formula:
        pos = self.pos
        kind, text, offset = self.tokens[pos]
        self.pos = pos + 1
        if kind == _IDENT:
            if text in ("K", "H") and self.tokens[pos + 1][0] == _LBRACE:
                coalition = self.coalition()
                sub = self.unary(_deeper(depth, offset))
                return Know(coalition, sub) if text == "K" else How(coalition, sub)
            return Atom(text)
        if kind == _BANG:
            return Not(self.unary(_deeper(depth, offset)))
        if kind == _LPAREN:
            inner = self.formula(_deeper(depth, offset))
            kind, _, offset = self.tokens[self.pos]
            if kind != _RPAREN:
                raise FormulaSyntaxError("syntax error", offset, (_RPAREN,))
            self.pos += 1
            return inner
        if kind == _FALSE:
            return Falsum()
        if kind == _TRUE:
            return Not(Falsum())
        raise FormulaSyntaxError("syntax error", offset, _UNARY_START)

    def coalition(self) -> Coalition:
        """Read ``{...}``; ``pos`` is at the ``{``, which the caller has seen."""
        tokens = self.tokens
        pos = self.pos + 1
        kind, text, offset = tokens[pos]
        if kind == _RBRACE:
            self.pos = pos + 1
            return frozenset()
        members: set[str] = set()
        while True:
            if kind != _IDENT:
                raise FormulaSyntaxError("syntax error", offset, (_IDENT,))
            if text in members:
                raise FormulaSyntaxError(
                    f"duplicate agent {text!r} in coalition", offset)
            members.add(text)
            kind, _, offset = tokens[pos + 1]
            pos += 2
            if kind == _RBRACE:
                self.pos = pos
                return frozenset(members)
            if kind != _COMMA:
                raise FormulaSyntaxError("syntax error", offset, (_COMMA, _RBRACE))
            kind, text, offset = tokens[pos]


def parse(text: str) -> Formula:
    """Parse ``text`` into a formula; raise FormulaSyntaxError on bad input."""
    parser = _Parser(text)
    f = parser.formula(0)
    kind, _, offset = parser.tokens[parser.pos]
    if kind != _EOF:
        raise FormulaSyntaxError("syntax error", offset, (_ARROW, _EOF))
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


class Measures(NamedTuple):
    """What the checker's preconditions read of a formula."""

    nesting: int  # see :func:`nesting`
    h_depth: int  # see :func:`h_depth`
    uses_empty_coalition: bool  # see :func:`uses_empty_coalition`
    agents: frozenset[str]  # every agent some coalition of the formula names


def measures(f: Formula) -> Measures:
    """The :class:`Measures` of ``f``, folded once per formula object.

    Like a node's hash, the result is kept on every node the fold visits,
    so the command line, the harness and the checker's preconditions share
    one fold of a formula however often each asks, and a node built on
    measured operands (``witness`` builds ``H{C} body``) needs no fold.
    """
    found = getattr(f, "_measures", None)
    if found is None:
        parts = [getattr(sub, "_measures", None) for sub in _operands(f)]
        found = (_fold(f, _kept_measures) if None in parts
                 else _kept_measures(f, parts))
    return found


def _kept_measures(g: Formula, parts: list[Measures]) -> Measures:
    found = _measure_node(g, parts)
    object.__setattr__(g, "_measures", found)
    return found


_LEAF = Measures(0, 0, False, frozenset())  # an atom or ``false``


def _measure_node(g: Formula, parts: list[Measures]) -> Measures:
    if not parts:
        return _LEAF
    if isinstance(g, Implies):
        left, right = parts
        # a left implication needs parentheses, a right one does not
        return Measures(
            max(isinstance(g.left, Implies) + left.nesting, 1 + right.nesting),
            max(left.h_depth, right.h_depth),
            left.uses_empty_coalition or right.uses_empty_coalition,
            left.agents | right.agents)
    sub = parts[0]
    if isinstance(g, Not):
        if isinstance(g.sub, Falsum):  # ``!false`` prints as ``true``
            return _LEAF
        return sub._replace(nesting=1 + isinstance(g.sub, Implies) + sub.nesting)
    return Measures(  # Know, How
        1 + isinstance(g.sub, Implies) + sub.nesting,
        isinstance(g, How) + sub.h_depth,
        sub.uses_empty_coalition or not g.coalition,
        sub.agents | g.coalition)


def h_depth(f: Formula) -> int:
    """Maximum nesting of know-how operators along any root-to-leaf path."""
    return measures(f).h_depth


def nesting(f: Formula) -> int:
    """Deepest operand nesting of ``format_formula(f)``, counted as ``parse``
    counts it.

    The printed text has the fewest parentheses that parse back to ``f``, so
    a formula that ``parse`` returned never measures above ``MAX_NESTING``.
    Like :func:`h_depth` and :func:`uses_empty_coalition` it reads
    :func:`measures`, which visits each node object once, without recursion.
    """
    return measures(f).nesting


def uses_empty_coalition(f: Formula) -> bool:
    """True iff some K or H node in ``f`` carries the empty coalition."""
    return measures(f).uses_empty_coalition
