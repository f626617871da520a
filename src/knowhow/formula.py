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

Whitespace is what ``str.isspace`` accepts.  :func:`parse` splits the text
with one ``findall`` of a compiled regular expression into plain token
strings ending in ``""`` for the end of input, and a recursive-descent
parser reads them by index, one call per operand level (see
``MAX_NESTING``).  A character that starts no token is found by comparing
the tokens' total length with the text's non-space characters; token
offsets are computed only when an error names one.  A memo of the token
sequences already parsed, which a caller may pass to :func:`parse`, lets
the formulas of one proof file share each equal subformula as one node.

Nodes are plain ``__slots__`` classes with hand-written constructors,
equality and hashing, and refuse attribute assignment.  A node's hash is
folded from its operands' stored hashes at construction, so equal trees
hash alike however they were built, and equality compares those hashes
before the operands.  The module imports neither ``dataclasses`` nor
``typing``, which would cost a ``knowhow check`` process more than the
check itself.
"""
from __future__ import annotations

import re
from collections import namedtuple
from itertools import compress, count

Coalition = frozenset[str]


class InputError(ValueError):
    """Base of every bad-input error (exit code 2); ``line_no`` prefixes ``line N: ``."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class FormulaSyntaxError(InputError):
    """Parse failure, with the byte offset and the token set expected there."""

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        self.offset = offset
        self.expected = tuple(sorted(expected))
        if self.expected:
            message = f"{message} at offset {offset}: expected {' or '.join(self.expected)}"
        else:
            message = f"{message} at offset {offset}"
        super().__init__(message)


class NestingError(InputError):
    """A formula built in code nests deeper than ``MAX_NESTING`` levels."""


class _Record:
    """An immutable value whose class's own ``__slots__`` are its
    constructor's parameters, in order.

    Equality, hashing, ``repr`` and pickling go by those fields, as a frozen
    dataclass's do; a copy is rebuilt through the constructor.  Assignment
    and deletion raise, so constructors write their slots through the
    slots' descriptors or ``object.__setattr__``.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _fields(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __reduce__(self):
        return self.__class__, self._fields()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self.__slots__, self._fields()))
        return f"{self.__class__.__qualname__}({fields})"


class Formula(_Record):
    """Base class for formula nodes; trees are immutable and compare structurally.

    ``str`` and ``repr`` fold the tree without recursion (see :func:`_fold`),
    so they print formulas of any depth.  Every node keeps its hash in
    ``_h``, which its class's ``__eq__`` compares first, and :func:`measures`
    keeps its result in ``_measures``.
    """

    __slots__ = ("_h", "_measures")

    def __str__(self) -> str:
        return format_formula(self)

    def __repr__(self) -> str:
        return _fold(self, _repr_node)


def _cached_hash(self):
    # structural hashes are precomputed at construction; deep trees and memo
    # tables probe them constantly
    return self._h


# the constructors and :func:`measures` write the slots through their
# descriptors, which is faster than ``object.__setattr__``
_set_h = Formula._h.__set__
_set_measures = Formula._measures.__set__

_FALSUM_H = hash("Falsum")


class Falsum(Formula):
    __slots__ = ()
    __hash__ = _cached_hash

    def __init__(self):
        _set_h(self, _FALSUM_H)

    def __eq__(self, other):
        return other.__class__ is self.__class__ or NotImplemented


class Atom(Formula):
    __slots__ = ("name",)
    __hash__ = _cached_hash

    def __init__(self, name: str):
        _set_name(self, name)
        _set_h(self, hash(("Atom", name)))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.name == other.name


class Not(Formula):
    __slots__ = ("sub",)
    __hash__ = _cached_hash

    def __init__(self, sub: Formula):
        _set_not_sub(self, sub)
        _set_h(self, hash(("Not", sub._h)))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        # the tuple compares operands by identity before ``==``
        return self._h == other._h and (self.sub,) == (other.sub,)


class Implies(Formula):
    __slots__ = ("left", "right")
    __hash__ = _cached_hash

    def __init__(self, left: Formula, right: Formula):
        _set_left(self, left)
        _set_right(self, right)
        _set_h(self, hash(("Implies", left._h, right._h)))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self._h == other._h
                and (self.left, self.right) == (other.left, other.right))


def _modal_eq(self, other):  # Know's and How's
    if other.__class__ is not self.__class__:
        return NotImplemented
    return (self._h == other._h
            and (self.coalition, self.sub) == (other.coalition, other.sub))


class Know(Formula):
    __slots__ = ("coalition", "sub")
    __hash__ = _cached_hash
    __eq__ = _modal_eq

    def __init__(self, coalition: Coalition, sub: Formula):
        _set_know_coalition(self, coalition)
        _set_know_sub(self, sub)
        _set_h(self, hash(("Know", coalition, sub._h)))


class How(Formula):
    __slots__ = ("coalition", "sub")
    __hash__ = _cached_hash
    __eq__ = _modal_eq

    def __init__(self, coalition: Coalition, sub: Formula):
        _set_how_coalition(self, coalition)
        _set_how_sub(self, sub)
        _set_h(self, hash(("How", coalition, sub._h)))


_set_name = Atom.name.__set__
_set_not_sub = Not.sub.__set__
_set_left, _set_right = Implies.left.__set__, Implies.right.__set__
_set_know_coalition, _set_know_sub = Know.coalition.__set__, Know.sub.__set__
_set_how_coalition, _set_how_sub = How.coalition.__set__, How.sub.__set__

#: ``true`` desugars to this node.
TOP = Not(Falsum())

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")

# token kinds, as error messages name the tokens expected
_ARROW, _RPAREN, _COMMA, _RBRACE, _IDENT, _EOF = (
    "'->'", "')'", "','", "'}'", "identifier", "end of input")
_UNARY_START = ("'!'", _IDENT, "'true'", "'false'", "'('")

# every token text that is not an identifier; ``""`` ends the input
_NOT_IDENT = frozenset({"->", "!", "{", "}", "(", ")", ",", "true", "false", ""})
_PARENS = frozenset("()")

_TOKEN = re.compile(r"->|[!{}(),]|" + IDENT_RE.pattern)

# group 1 is a token; group 2 is any other character that is not whitespace.
# ``finditer`` steps over the positions where neither matches, which are the
# ``\s`` characters: for ``str`` patterns exactly those that ``str.isspace``
# accepts.
_SCANNER = re.compile("(" + _TOKEN.pattern + r")|(\S)")


def _tokenize(text: str) -> tuple[str, ...]:
    """The token texts of ``text``, then ``""`` for the end of input, so the
    parser can look one token past any token but the last.

    ``findall`` steps over a character that starts no token, and does so at
    exactly the positions where ``_SCANNER`` matches it as a stray, so the
    tokens leave out some non-space character exactly when the text has a
    stray one; only then does ``_SCANNER`` run, to name the first.
    """
    tokens = _TOKEN.findall(text)
    if len("".join(tokens)) < len("".join(text.split())):
        for m in _SCANNER.finditer(text):
            if m.lastindex == 2:
                raise FormulaSyntaxError(f"unexpected character {m.group()!r}", m.start())
    return (*tokens, "")


#: Deepest operand nesting ``parse`` accepts.  Every ``!``, ``K{..}``,
#: ``H{..}``, ``->`` and ``(`` opens one level for the operand after it, so
#: ``"!" * MAX_NESTING + "p"`` is the deepest chain of negations.  The parser
#: reads the tokens by index but still recurses once per level, and the
#: checker recurses up to five frames per ``H{..}``, so a formula of any shape
#: at this bound still runs under Python's default recursion limit of 1000.
#: Deeper text fails as a syntax error instead of a RecursionError, and the
#: checker refuses deeper formulas built in code (see :func:`nesting`); the
#: printer has no such limit.
MAX_NESTING = 150


class _Parser:
    """Recursive descent over the token texts of one text.

    ``pos`` indexes the next unread token; the end-of-input token is never
    read past.  A method's ``depth`` argument counts the operand levels
    open around the text it reads; an opener at ``MAX_NESTING`` raises.
    Offsets are only computed for an error, by scanning the text again.

    ``memo`` maps a token sequence that reads as one whole formula to its
    node.  :meth:`formula` reads exactly such a sequence whenever it
    succeeds: a whole text, the inside of a parenthesized group, or the
    right operand of ``->``, which runs to the ``)`` or end of input that
    ends the formula around it.  Each of those ends where its parentheses
    balance, and that ``)`` or end of input lets no formula read on, so the
    sequence parses alike wherever it stands.  A sequence found in the memo
    is skipped and its node reused, but only when it has too few tokens to
    open a level at ``MAX_NESTING`` from here (every level opens on its own
    token), so a reuse never hides a nesting error.
    """

    __slots__ = ("text", "tokens", "pos", "memo", "closer")

    def __init__(self, text: str, memo: dict):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.memo = memo
        self.closer: dict[int, int] | None = None  # built on the first group

    def error(self, message: str, index: int, expected: tuple[str, ...] = ()):
        """The FormulaSyntaxError at the token with index ``index``.

        The text has no stray character once it is tokenized, so every
        ``_SCANNER`` match is a token, and the end of input is at ``len``.
        """
        offsets = [m.start() for m in _SCANNER.finditer(self.text)]
        offsets.append(len(self.text))
        return FormulaSyntaxError(message, offsets[index], expected)

    def too_deep(self, index: int):
        return self.error(f"formula nests deeper than {MAX_NESTING} levels", index)

    def formula(self, depth: int, end: int | None) -> Formula:
        """The formula of ``tokens[pos:end]``; ``end`` is the index of the
        ``)`` or end of input that closes it, or None if no ``)`` does."""
        start = self.pos
        if end is not None:
            key = self.tokens[start:end]
            found = self.memo.get(key)
            if found is not None and depth + end - start <= MAX_NESTING:
                self.pos = end
                return found
        f = self.unary(depth)
        pos = self.pos
        if self.tokens[pos] == "->":
            if depth == MAX_NESTING:
                raise self.too_deep(pos)
            self.pos = pos + 1
            f = Implies(f, self.formula(depth + 1, end))
        if self.pos == end:
            # a node already kept for the sequence stays the shared one
            f = self.memo.setdefault(key, f)
        return f

    def unary(self, depth: int) -> Formula:
        pos = self.pos
        tokens = self.tokens
        token = tokens[pos]
        self.pos = pos + 1
        if token not in _NOT_IDENT:
            if (token == "K" or token == "H") and tokens[pos + 1] == "{":
                coalition = self.coalition()
                if depth == MAX_NESTING:
                    raise self.too_deep(pos)
                sub = self.unary(depth + 1)
                return Know(coalition, sub) if token == "K" else How(coalition, sub)
            return Atom(token)
        if token == "!":
            if depth == MAX_NESTING:
                raise self.too_deep(pos)
            return Not(self.unary(depth + 1))
        if token == "(":
            if depth == MAX_NESTING:
                raise self.too_deep(pos)
            if self.closer is None:
                self.closer = _closers(tokens)
            inner = self.formula(depth + 1, self.closer.get(pos))
            pos = self.pos
            if tokens[pos] != ")":
                raise self.error("syntax error", pos, (_RPAREN,))
            self.pos = pos + 1
            return inner
        if token == "false":
            return Falsum()
        if token == "true":
            return Not(Falsum())
        raise self.error("syntax error", pos, _UNARY_START)

    def coalition(self) -> Coalition:
        """Read ``{...}``; ``pos`` is at the ``{``, which the caller has seen."""
        tokens = self.tokens
        pos = self.pos + 1
        token = tokens[pos]
        if token == "}":
            self.pos = pos + 1
            return frozenset()
        members: set[str] = set()
        while True:
            if token in _NOT_IDENT:
                raise self.error("syntax error", pos, (_IDENT,))
            if token in members:
                raise self.error(f"duplicate agent {token!r} in coalition", pos)
            members.add(token)
            token = tokens[pos + 1]
            pos += 2
            if token == "}":
                self.pos = pos
                return frozenset(members)
            if token != ",":
                raise self.error("syntax error", pos - 1, (_COMMA, _RBRACE))
            token = tokens[pos]


def _closers(tokens: tuple[str, ...]) -> dict[int, int]:
    """The index of each ``(`` that some ``)`` closes -> the index of that ``)``."""
    closer = {}
    opened = []
    for index in compress(count(), map(_PARENS.__contains__, tokens)):
        if tokens[index] == "(":
            opened.append(index)
        elif opened:
            closer[opened.pop()] = index
    return closer


def parse(text: str, memo: dict | None = None) -> Formula:
    """Parse ``text`` into a formula; raise FormulaSyntaxError on bad input.

    ``memo`` (fresh when omitted) maps token sequences already parsed to
    their nodes; pass one dict to parse several texts, and every equal
    subformula that one of them spells out as a whole text, a parenthesized
    group or the right operand of ``->`` comes back as the same object.  The
    trees and errors are those of a fresh memo, and nothing is kept between
    calls but what the caller's ``memo`` holds.
    """
    parser = _Parser(text, {} if memo is None else memo)
    tokens = parser.tokens
    f = parser.formula(0, len(tokens) - 1)
    if tokens[parser.pos] != "":
        raise parser.error("syntax error", parser.pos, (_ARROW, _EOF))
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


Measures = namedtuple("Measures", "nesting h_depth uses_empty_coalition agents")
Measures.__doc__ = """What the checker's preconditions read of a formula.

``nesting``, ``h_depth`` and ``uses_empty_coalition`` are what :func:`nesting`,
:func:`h_depth` and :func:`uses_empty_coalition` return, and ``agents`` is the
frozenset of every agent that some coalition of the formula names.  A plain
``collections.namedtuple``, so reading the module imports no ``typing``.
"""


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
    _set_measures(g, found)
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
