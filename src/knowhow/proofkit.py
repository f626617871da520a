"""Hilbert-style derivation checking for the nine-axiom K/H system.

A derivation is a numbered list of formulas, each justified as a
propositional tautology, an axiom-schema instance, or an application of
modus ponens, necessitation, or strategic necessitation; hypothesis lines
bring in extra premises.  Lines split into two modes: theorem-mode lines are
derivable from the axioms alone and may feed every rule, while lines that
depend on a hypothesis may only be combined by modus ponens, and the two
necessitation rules reject hypothesis-mode premises outright.

Schema matching is purely syntactic: metavariables bind to exact subtrees
and no rewriting modulo associativity or commutativity happens, so an axiom
instance must be written in the schema's literal shape.
"""
from __future__ import annotations

import enum
import re
from dataclasses import dataclass

from .formula import (
    Atom, Coalition, Falsum, Formula, How, Implies, Know, Not,
    FormulaSyntaxError, IDENT_RE, InputError, format_coalition, parse,
)


class AxiomName(enum.Enum):
    TRUTH = "Truth"
    NEGATIVE_INTROSPECTION = "NegativeIntrospection"
    DISTRIBUTIVITY = "Distributivity"
    MONOTONICITY = "Monotonicity"
    STRATEGIC_POSITIVE_INTROSPECTION = "StrategicPositiveIntrospection"
    COOPERATION = "Cooperation"
    EMPTY_COALITION = "EmptyCoalition"
    PERFECT_RECALL = "PerfectRecall"
    UNACHIEVABILITY_OF_FALSEHOOD = "UnachievabilityOfFalsehood"


_AXIOM_BY_NAME = {a.value: a for a in AxiomName}


def match_axiom(f: Formula) -> frozenset[AxiomName]:
    """All axiom schemas the formula instantiates, side conditions included."""
    out = set()
    if isinstance(f, Not) and isinstance(f.sub, How) and isinstance(f.sub.sub, Falsum):
        out.add(AxiomName.UNACHIEVABILITY_OF_FALSEHOOD)
    if isinstance(f, Implies):
        left, right = f.left, f.right
        # K{C} x -> x
        if isinstance(left, Know) and right == left.sub:
            out.add(AxiomName.TRUTH)
        # !K{C} x -> K{C} !K{C} x
        if (isinstance(left, Not) and isinstance(left.sub, Know)
                and right == Know(left.sub.coalition, left)):
            out.add(AxiomName.NEGATIVE_INTROSPECTION)
        # K{C}(x -> y) -> (K{C} x -> K{C} y)
        if (isinstance(left, Know) and isinstance(left.sub, Implies)
                and right == Implies(Know(left.coalition, left.sub.left),
                                     Know(left.coalition, left.sub.right))):
            out.add(AxiomName.DISTRIBUTIVITY)
        # K{C} x -> K{D} x, C subset of D
        if (isinstance(left, Know) and isinstance(right, Know)
                and left.sub == right.sub and left.coalition <= right.coalition):
            out.add(AxiomName.MONOTONICITY)
        # H{C} x -> K{C} H{C} x
        if isinstance(left, How) and right == Know(left.coalition, left):
            out.add(AxiomName.STRATEGIC_POSITIVE_INTROSPECTION)
        # H{C}(x -> y) -> (H{D} x -> H{C u D} y), C and D disjoint
        if (isinstance(left, How) and isinstance(left.sub, Implies)
                and isinstance(right, Implies)
                and isinstance(right.left, How) and isinstance(right.right, How)
                and right.left.sub == left.sub.left
                and right.right.sub == left.sub.right
                and not (left.coalition & right.left.coalition)
                and right.right.coalition == left.coalition | right.left.coalition):
            out.add(AxiomName.COOPERATION)
        # K{} x -> H{} x
        if (isinstance(left, Know) and isinstance(right, How)
                and not left.coalition and not right.coalition
                and left.sub == right.sub):
            out.add(AxiomName.EMPTY_COALITION)
        # H{D} x -> H{D} K{C} x, D subset of C, C nonempty
        if (isinstance(left, How) and isinstance(right, How)
                and left.coalition == right.coalition
                and isinstance(right.sub, Know)
                and right.sub.sub == left.sub
                and left.coalition <= right.sub.coalition
                and right.sub.coalition):
            out.add(AxiomName.PERFECT_RECALL)
    return frozenset(out)


#: Most distinct opaque subformulas ``is_tautology`` accepts; its truth
#: table then holds 2^22 rows, one bit each.
MAX_OPAQUE = 22


class OpaqueLimitError(InputError):
    """A formula has more distinct opaque subformulas than ``MAX_OPAQUE``."""

    def __init__(self, count: int, line_no: int | None = None):
        self.count = count
        super().__init__(
            f"too many distinct opaque subformulas ({count}, limit {MAX_OPAQUE})", line_no)


# operator markers on is_tautology's work stack
_NOT, _IMPLIES = object(), object()


def is_tautology(f: Formula) -> bool:
    """Propositional validity with every K/H subformula and atom opaque.

    Syntactically identical opaque subtrees share one boolean variable;
    ``false`` is the constant.  With n variables the whole truth table is
    evaluated at once: variable i is a 2^n-bit integer whose bit k is bit i
    of k, the connectives become bitwise operations, and the formula is valid
    iff its mask has every bit set.  Both passes over the tree use explicit
    stacks, so formulas nested past the recursion limit are decided too.
    Raises ``OpaqueLimitError`` above ``MAX_OPAQUE`` variables.
    """
    index: dict[Formula, int] = {}
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, (Atom, Know, How)):
            index.setdefault(g, len(index))
        elif isinstance(g, Not):
            stack.append(g.sub)
        elif isinstance(g, Implies):
            stack.append(g.right)
            stack.append(g.left)
        elif not isinstance(g, Falsum):
            raise TypeError(f"not a formula: {g!r}")
    n = len(index)
    if n > MAX_OPAQUE:
        raise OpaqueLimitError(n)

    rows = 1 << n
    full = (1 << rows) - 1
    masks = []
    for i in range(n):
        # 2^i zeros then 2^i ones, doubled until it spans every row
        width = 2 << i
        m = ((1 << (1 << i)) - 1) << (1 << i)
        while width < rows:
            m |= m << width
            width <<= 1
        masks.append(m)

    # postfix evaluation: _NOT and _IMPLIES mark where an operator applies
    # to the masks its operands left on ``values``.  The consequent goes
    # first, so a right-nested chain ``a -> b -> ... -> z`` (the shape
    # ``->`` associates to) keeps one pending mask, not one per arrow.
    values: list[int] = []
    stack = [f]
    while stack:
        g = stack.pop()
        if g is _NOT:
            values.append(full ^ values.pop())
        elif g is _IMPLIES:
            x = values.pop()
            values.append((full ^ x) | values.pop())
        elif isinstance(g, Falsum):
            values.append(0)
        elif isinstance(g, Not):
            stack.append(_NOT)
            stack.append(g.sub)
        elif isinstance(g, Implies):
            stack.append(_IMPLIES)
            stack.append(g.left)
            stack.append(g.right)
        else:
            values.append(masks[index[g]])
    return values.pop() == full


# --- derivations -----------------------------------------------------------

class Justification:
    __slots__ = ()


@dataclass(frozen=True)
class Tautology(Justification):
    def __str__(self):
        return "taut"


@dataclass(frozen=True)
class AxiomInstance(Justification):
    name: AxiomName

    def __str__(self):
        return f"axiom {self.name.value}"


@dataclass(frozen=True)
class ModusPonens(Justification):
    antecedent: int  # line holding x, 1-based
    implication: int  # line holding x -> y

    def __str__(self):
        return f"mp {self.antecedent} {self.implication}"


@dataclass(frozen=True)
class Necessitation(Justification):
    premise: int
    coalition: Coalition

    def __str__(self):
        return "nec%s %d" % (format_coalition(self.coalition), self.premise)


@dataclass(frozen=True)
class StrategicNecessitation(Justification):
    premise: int
    coalition: Coalition

    def __str__(self):
        return "snec%s %d" % (format_coalition(self.coalition), self.premise)


@dataclass(frozen=True)
class Hypothesis(Justification):
    index: int  # 0-based into Derivation.hypotheses
    label: str

    def __str__(self):
        return f"hyp {self.label}"


@dataclass(frozen=True)
class Line:
    formula: Formula
    justification: Justification


@dataclass(frozen=True)
class Derivation:
    hypotheses: tuple[tuple[str, Formula], ...]
    lines: tuple[Line, ...]
    goal: Formula


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    line: int | None = None  # 1-based first failing line; None for goal/global failures
    reason: str | None = None

    def __str__(self):
        if self.ok:
            return "ok"
        where = f"line {self.line}: " if self.line is not None else ""
        return f"{where}{self.reason}"


THEOREM, FROM_HYPOTHESES = "theorem", "hypothesis"


def verify(d: Derivation) -> VerifyResult:
    """Check every line and the goal; report the earliest failure.

    A ``taut`` line over more than ``MAX_OPAQUE`` opaque subformulas is not
    decided: ``OpaqueLimitError`` names the line instead.
    """
    modes: list[str] = []
    for idx, line in enumerate(d.lines, start=1):
        f, how = line.formula, line.justification
        if isinstance(how, Tautology):
            try:
                valid = is_tautology(f)
            except OpaqueLimitError as e:
                raise OpaqueLimitError(e.count, idx) from None
            if not valid:
                return VerifyResult(False, idx, "not a propositional tautology")
            modes.append(THEOREM)
        elif isinstance(how, AxiomInstance):
            matched = match_axiom(f)
            if how.name not in matched:
                return VerifyResult(
                    False, idx,
                    f"not an instance of {how.name.value}"
                    + (f" (matches {', '.join(sorted(a.value for a in matched))})"
                       if matched else ""))
            modes.append(THEOREM)
        elif isinstance(how, ModusPonens):
            for ref in (how.antecedent, how.implication):
                if not 1 <= ref < idx:
                    return VerifyResult(False, idx, f"bad line reference {ref}")
            premise = d.lines[how.antecedent - 1].formula
            impl = d.lines[how.implication - 1].formula
            if not isinstance(impl, Implies) or impl.left != premise or impl.right != f:
                return VerifyResult(
                    False, idx,
                    f"line {how.implication} is not (line {how.antecedent} -> this line)")
            both = (modes[how.antecedent - 1], modes[how.implication - 1])
            modes.append(THEOREM if both == (THEOREM, THEOREM) else FROM_HYPOTHESES)
        elif isinstance(how, (Necessitation, StrategicNecessitation)):
            if not 1 <= how.premise < idx:
                return VerifyResult(False, idx, f"bad line reference {how.premise}")
            if modes[how.premise - 1] != THEOREM:
                return VerifyResult(
                    False, idx,
                    "mode violation: necessitation over a line that depends on hypotheses")
            shape = Know if isinstance(how, Necessitation) else How
            if f != shape(how.coalition, d.lines[how.premise - 1].formula):
                return VerifyResult(
                    False, idx, f"formula is not line {how.premise} under the stated modality")
            modes.append(THEOREM)
        elif isinstance(how, Hypothesis):
            if not 0 <= how.index < len(d.hypotheses):
                return VerifyResult(False, idx, f"unknown hypothesis {how.label!r}")
            if f != d.hypotheses[how.index][1]:
                return VerifyResult(
                    False, idx, f"formula differs from hypothesis {how.label}")
            modes.append(FROM_HYPOTHESES)
        else:
            return VerifyResult(False, idx, f"unknown justification {how!r}")
    if not d.lines:
        return VerifyResult(False, None, "derivation has no lines")
    if d.lines[-1].formula != d.goal:
        return VerifyResult(False, None, "final line does not match the goal")
    return VerifyResult(True)


# --- proof file format ------------------------------------------------------

class ProofFormatError(InputError):
    """Bad proof text: layout, justification, or a formula that does not parse."""


# One named group per justification form, named after it: ``taut`` matches
# empty, and ``axiom``, ``mp``, ``nec`` and ``hyp`` hold the axiom name, the
# antecedent line, the rule and the label.  A justification may not start
# inside an identifier, so ``q -> qtaut`` cuts no ``taut`` from ``qtaut``.
_JUST_RE = re.compile(
    r"(?<![A-Za-z0-9_'])"
    r"(?:taut(?P<taut>)"
    r"|axiom\s+(?P<axiom>[A-Za-z]+)"
    r"|mp\s+(?P<mp>\d+)\s+(?P<implication>\d+)"
    r"|(?P<nec>s?nec)\{(?P<coalition>[^}]*)\}\s+(?P<premise>\d+)"
    r"|hyp\s+(?P<hyp>[A-Za-z_][A-Za-z0-9_']*))\s*$")


def _parse_coalition_body(body: str, line_no: int) -> Coalition:
    body = body.strip()
    if not body:
        return frozenset()
    members = [m.strip() for m in body.split(",")]
    for m in members:
        if not IDENT_RE.fullmatch(m):
            raise ProofFormatError(f"bad agent token {m!r}", line_no)
    if len(set(members)) != len(members):
        raise ProofFormatError("duplicate agent in coalition", line_no)
    return frozenset(members)


def _justification(m: re.Match, labels: dict[str, int], line_no: int) -> Justification:
    """The justification that a ``_JUST_RE`` match names."""
    if m["taut"] is not None:
        return Tautology()
    if m["axiom"]:
        name = m["axiom"]
        if name not in _AXIOM_BY_NAME:
            raise ProofFormatError(f"unknown axiom {name!r}", line_no)
        return AxiomInstance(_AXIOM_BY_NAME[name])
    if m["mp"]:
        return ModusPonens(int(m["mp"]), int(m["implication"]))
    if m["nec"]:
        coalition = _parse_coalition_body(m["coalition"], line_no)
        cls = Necessitation if m["nec"] == "nec" else StrategicNecessitation
        return cls(int(m["premise"]), coalition)
    label = m["hyp"]
    if label not in labels:
        raise ProofFormatError(f"unknown hypothesis label {label!r}", line_no)
    return Hypothesis(labels[label], label)


def _parse_formula(text: str, what: str, line_no: int, memo: dict) -> Formula:
    """``parse(text, memo)``, with a syntax error reported as bad ``what`` at
    ``line_no``."""
    try:
        return parse(text, memo)
    except FormulaSyntaxError as e:
        raise ProofFormatError(f"bad {what}: {e}", line_no) from e


def parse_derivation(text: str) -> Derivation:
    """Parse the proof file format (hypotheses / lines / goal sections).

    The formulas of one file share one parser memo, so a subformula that
    recurs as a whole formula, a parenthesized group or the right operand of
    ``->`` is parsed once and comes back as one object: a modus ponens line
    is the very ``right`` of its implication line, and ``verify`` compares
    them by identity.  The memo is dropped when the call returns; nothing
    is cached across calls.
    """
    memo: dict = {}  # token sequence -> its formula, for this file only
    hypotheses: list[tuple[str, Formula]] = []
    labels: dict[str, int] = {}
    lines: list[Line] = []
    goal: Formula | None = None
    section = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("#", 1)[0].rstrip()
        if not content.strip():
            continue
        stripped = content.strip()
        if stripped == "hypotheses:":
            section = "hypotheses"
            continue
        if stripped == "lines:":
            section = "lines"
            continue
        if stripped.startswith("goal:"):
            if goal is not None:
                raise ProofFormatError("duplicate goal", line_no)
            goal = _parse_formula(stripped[len("goal:"):], "goal formula", line_no, memo)
            section = None
            continue
        if section == "hypotheses":
            label, colon, body = stripped.partition(":")
            label = label.strip()
            if not colon or not IDENT_RE.fullmatch(label):
                raise ProofFormatError("expected 'label: formula'", line_no)
            if label in labels:
                raise ProofFormatError(f"duplicate hypothesis label {label!r}", line_no)
            f = _parse_formula(body, "hypothesis formula", line_no, memo)
            labels[label] = len(hypotheses)
            hypotheses.append((label, f))
        elif section == "lines":
            number, colon, body = stripped.partition(":")
            if not colon or not number.strip().isdecimal():
                raise ProofFormatError("expected 'N: formula justification'", line_no)
            if int(number) != len(lines) + 1:
                raise ProofFormatError(
                    f"lines must be numbered consecutively; expected {len(lines) + 1}",
                    line_no)
            m = _JUST_RE.search(body)
            if not m:
                raise ProofFormatError("missing or malformed justification", line_no)
            f = _parse_formula(body[:m.start()], "formula", line_no, memo)
            lines.append(Line(f, _justification(m, labels, line_no)))
        else:
            raise ProofFormatError(f"unexpected content {stripped!r}", line_no)
    if goal is None:
        raise ProofFormatError("missing goal")
    if not lines:
        raise ProofFormatError("missing lines section")
    return Derivation(tuple(hypotheses), tuple(lines), goal)


def format_derivation(d: Derivation) -> str:
    out = []
    if d.hypotheses:
        out.append("hypotheses:")
        for label, f in d.hypotheses:
            out.append(f"  {label}: {f}")
    out.append("lines:")
    for idx, line in enumerate(d.lines, start=1):
        out.append(f"  {idx}: {line.formula}    {line.justification}")
    out.append(f"goal: {d.goal}")
    return "\n".join(out) + "\n"


# --- mechanical superdistributivity instances -------------------------------

def _implication_chain(premises: list[Formula], conclusion: Formula) -> Formula:
    chain = conclusion
    for premise in reversed(premises):
        chain = Implies(premise, chain)
    return chain


def derive_superdistributivity_instance(
        premise_coalitions: list[Coalition],
        premise_formulas: list[Formula],
        conclusion: Formula,
        propositional_core: Derivation) -> Derivation:
    """Emit a verifying derivation of H-premises entailing the joint conclusion.

    Given pairwise-disjoint coalitions ``C1..Cn``, formulas ``x1..xn``, and a
    theorem-mode core derivation of ``x1 -> (... -> (xn -> y))``, produces
    the derivation of ``H{C1}x1, ..., H{Cn}xn |- H{C1 u ... u Cn}y``:
    strategic necessitation of the core with the empty coalition, then an
    alternation of Cooperation instances and modus ponens, folding in one
    hypothesis per round.
    """
    return _superdistributivity(premise_coalitions, premise_formulas, conclusion,
                                propositional_core, strategic=True)


def derive_k_superdistributivity_instance(
        coalition: Coalition,
        premise_formulas: list[Formula],
        conclusion: Formula,
        propositional_core: Derivation) -> Derivation:
    """Knowledge analogue: K{C}x1, ..., K{C}xn |- K{C}y via Distributivity."""
    return _superdistributivity([coalition] * len(premise_formulas),
                                premise_formulas, conclusion,
                                propositional_core, strategic=False)


def _superdistributivity(premise_coalitions, premise_formulas, conclusion,
                         core, strategic) -> Derivation:
    n = len(premise_formulas)
    if n == 0 or len(premise_coalitions) != n:
        raise ValueError("need one coalition per premise formula, at least one premise")
    if strategic:
        for i in range(n):
            for j in range(i + 1, n):
                if premise_coalitions[i] & premise_coalitions[j]:
                    raise ValueError(
                        f"premise coalitions {i + 1} and {j + 1} are not disjoint")
    if core.hypotheses:
        raise ValueError("propositional core must not use hypotheses")
    chain = _implication_chain(premise_formulas, conclusion)
    if core.goal != chain:
        raise ValueError(f"core goal must be {chain}")
    result = verify(core)
    if not result.ok:
        raise ValueError(f"propositional core does not verify: {result}")

    box = How if strategic else Know
    dist_axiom = (AxiomName.COOPERATION if strategic else AxiomName.DISTRIBUTIVITY)
    lines = list(core.lines)
    core_goal_line = len(lines)  # core must end on its goal; verified above

    def emit(formula: Formula, justification: Justification) -> int:
        lines.append(Line(formula, justification))
        return len(lines)

    hypotheses = tuple(
        (f"h{i + 1}", box(c, f))
        for i, (c, f) in enumerate(zip(premise_coalitions, premise_formulas)))

    aggregate: Coalition = frozenset() if strategic else premise_coalitions[0]
    necessitation = StrategicNecessitation if strategic else Necessitation
    rest = chain
    current = emit(box(aggregate, rest), necessitation(core_goal_line, aggregate))
    for i in range(n):
        coalition_i = premise_coalitions[i]
        assert isinstance(rest, Implies)
        tail = rest.right
        widened = aggregate | coalition_i
        axiom_formula = Implies(
            box(aggregate, rest),
            Implies(box(coalition_i, rest.left), box(widened, tail)))
        axiom_line = emit(axiom_formula, AxiomInstance(dist_axiom))
        step = emit(Implies(box(coalition_i, rest.left), box(widened, tail)),
                    ModusPonens(current, axiom_line))
        hyp_line = emit(hypotheses[i][1], Hypothesis(i, hypotheses[i][0]))
        current = emit(box(widened, tail), ModusPonens(hyp_line, step))
        aggregate = widened
        rest = tail

    return Derivation(hypotheses, tuple(lines), box(aggregate, conclusion))
