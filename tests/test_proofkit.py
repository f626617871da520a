import itertools
import random
import re
import time

import pytest

from knowhow import formula as formula_module
from knowhow.formula import TOP, Atom, Falsum, Implies, Know, How, Not, parse
from knowhow.fixtures import proof_text
from knowhow.proofkit import (
    _JUST_RE, AxiomInstance, AxiomName, Derivation, Hypothesis, Justification, Line,
    ModusPonens, MAX_OPAQUE, Necessitation, OpaqueLimitError, ProofFormatError,
    StrategicNecessitation, Tautology,
    derive_k_superdistributivity_instance, derive_superdistributivity_instance,
    format_derivation, is_tautology, match_axiom, parse_derivation, verify,
)

A = frozenset({"a"})


class TestMatchAxiom:
    def test_truth(self):
        assert match_axiom(parse("K{a,b} p -> p")) == {AxiomName.TRUTH}

    def test_cooperation(self):
        f = parse("H{a}(p -> q) -> (H{b} p -> H{a,b} q)")
        assert match_axiom(f) == {AxiomName.COOPERATION}

    def test_perfect_recall(self):
        f = parse("H{a} p -> H{a} K{a,b} p")
        assert match_axiom(f) == {AxiomName.PERFECT_RECALL}

    def test_perfect_recall_needs_nonempty_observers(self):
        assert match_axiom(parse("H{a} p -> H{a} K{} p")) == frozenset()

    def test_cooperation_needs_disjoint_coalitions(self):
        f = parse("H{a}(p -> q) -> (H{a} p -> H{a} q)")
        assert match_axiom(f) == frozenset()

    def test_remaining_schemas(self):
        cases = {
            "!K{a} p -> K{a} !K{a} p": AxiomName.NEGATIVE_INTROSPECTION,
            "K{a}(p -> q) -> (K{a} p -> K{a} q)": AxiomName.DISTRIBUTIVITY,
            "K{a} p -> K{a,b} p": AxiomName.MONOTONICITY,
            "H{b} q -> K{b} H{b} q": AxiomName.STRATEGIC_POSITIVE_INTROSPECTION,
            "K{} p -> H{} p": AxiomName.EMPTY_COALITION,
            "!H{a,b} false": AxiomName.UNACHIEVABILITY_OF_FALSEHOOD,
        }
        for text, expected in cases.items():
            assert expected in match_axiom(parse(text)), text

    def test_monotonicity_direction_is_small_to_large(self):
        assert match_axiom(parse("K{a,b} p -> K{a} p")) == frozenset()
        # identical coalitions satisfy the inclusion
        assert AxiomName.MONOTONICITY in match_axiom(parse("K{a} p -> K{a} p"))

    def test_instances_may_match_nothing(self):
        assert match_axiom(parse("p -> q")) == frozenset()
        assert match_axiom(parse("K{a} p")) == frozenset()


def _chain(antecedents, conclusion):
    """``a1 -> a2 -> ... -> conclusion``, built without the parser."""
    for a in reversed(antecedents):
        conclusion = Implies(a, conclusion)
    return conclusion


def _nest(op, depth, f):
    for _ in range(depth):
        f = op(f)
    return f


def _left_chain(length):
    """``((p -> p) -> p) -> ... -> p`` with ``length`` arrows: valid iff odd."""
    f = Atom("p")
    for _ in range(length):
        f = Implies(f, Atom("p"))
    return f


# opaque leaves for the random formulas: nested modalities, modal bodies with
# connectives, and atoms that also occur inside modal bodies
_OPAQUE_TEXTS = [
    "p", "q", "r", "K{a} p", "K{a,b} p", "H{a} p", "H{} (p -> q)",
    "K{a} H{b} !p", "H{a,b} K{} (p -> false)", "K{b} K{a} q",
    "H{a} (K{a} p -> r)", "K{} true", "H{b} false", "K{a} !!p",
]

# schemas over the metavariables A, B, C; every substitution instance is valid
_TAUTOLOGY_SCHEMAS = [
    "A -> B -> A",
    "(A -> B -> C) -> (A -> B) -> A -> C",
    "(!A -> !B) -> B -> A",
    "!!A -> A",
    "A -> !!A",
    "false -> A",
    "A -> true",
    "(A -> B) -> (B -> C) -> A -> C",
    "!A -> A -> B",
    "((A -> B) -> A) -> A",
    "(A -> C) -> (B -> C) -> ((A -> false) -> B) -> C",
    "!(A -> B) -> A",
]


def _random_formulas(rng, count):
    """Seeded formulas over at most 10 opaque subformulas, about half valid.

    Opaque leaves are parsed afresh at each use, so repeated subtrees are
    equal but not the same object.  Every third formula substitutes random
    formulas into a tautology schema; the rest are random trees.
    """
    schemas = [parse(text) for text in _TAUTOLOGY_SCHEMAS]

    def tree(pool, depth):
        roll = rng.random()
        if depth == 0 or roll < 0.1:
            pick = rng.random()
            if pick < 0.08:
                return Falsum()
            if pick < 0.16:
                return TOP
            return parse(rng.choice(pool))
        if roll < 0.25:
            return Not(tree(pool, depth - 1))
        return Implies(tree(pool, depth - 1), tree(pool, depth - 1))

    def substitute(f, env):
        if isinstance(f, Atom):
            return env[f.name]
        if isinstance(f, Not):
            return Not(substitute(f.sub, env))
        if isinstance(f, Implies):
            return Implies(substitute(f.left, env), substitute(f.right, env))
        return f

    out = []
    for i in range(count):
        pool = rng.sample(_OPAQUE_TEXTS, rng.randint(3, 10))
        if i % 3 == 0:
            env = {name: tree(pool, 2) for name in "ABC"}
            out.append(substitute(rng.choice(schemas), env))
        else:
            out.append(tree(pool, 6))
    return out


class TestIsTautology:
    def test_spec_examples(self):
        assert is_tautology(parse("p -> p"))
        assert is_tautology(parse("K{a} p -> K{a} p"))
        assert not is_tautology(parse("K{a} p -> p"))
        assert not is_tautology(parse("!H{a} false"))

    def test_falsum_is_constant(self):
        assert is_tautology(parse("false -> p"))
        assert not is_tautology(parse("p -> false"))
        assert is_tautology(parse("true"))

    def test_modal_opacity_distinguishes_distinct_subtrees(self):
        assert not is_tautology(parse("K{a} p -> K{b} p"))
        assert is_tautology(parse("(K{a} p -> q) -> (K{a} p -> q)"))

    def test_agrees_with_independent_brute_force(self):
        # independent oracle: collect opaque nodes in a different traversal
        # order and evaluate with an explicit stack machine
        def opaque_vars(f):
            out, stack = [], [f]
            while stack:
                g = stack.pop()
                if isinstance(g, (Atom, Know, How)):
                    if g not in out:
                        out.append(g)
                elif isinstance(g, Not):
                    stack.append(g.sub)
                elif isinstance(g, Implies):
                    stack.extend((g.right, g.left))
            return out

        def brute(f):
            vs = opaque_vars(f)
            assert len(vs) <= 10

            def ev(g, env):
                if isinstance(g, Falsum):
                    return False
                if isinstance(g, (Atom, Know, How)):
                    return env[g]
                if isinstance(g, Not):
                    return not ev(g.sub, env)
                return (not ev(g.left, env)) or ev(g.right, env)

            return all(ev(f, dict(zip(vs, combo)))
                       for combo in itertools.product((False, True), repeat=len(vs)))

        samples = [
            "p -> q -> p",
            "(p -> q) -> ((q -> r) -> (p -> r))",
            "((p -> false) -> false) -> p",
            "(p -> q) -> ((p -> !q) -> !p)",
            "K{a} p -> K{a} q",
            "(K{a} p -> K{a} q) -> (!K{a} q -> !K{a} p)",
            "H{a} (p -> q) -> H{a} (p -> q)",
            "p -> !!p",
            "!!p -> p",
            "!(p -> q) -> p",
        ]
        for text in samples:
            f = parse(text)
            assert is_tautology(f) == brute(f), text

        formulas = _random_formulas(random.Random(20171), 400)
        verdicts = []
        for f in formulas:
            verdict = brute(f)
            assert is_tautology(f) == verdict, str(f)
            verdicts.append(verdict)
        # the generator must keep producing both verdicts, so a decider
        # stuck on either answer fails here
        assert 0.35 <= sum(verdicts) / len(verdicts) <= 0.65

    def test_opaque_cap_boundary_is_fast(self):
        ms = [How(A, Atom(f"p{i}")) for i in range(MAX_OPAQUE)]
        steps = [Implies(x, y) for x, y in zip(ms, ms[1:])]
        for conclusion, valid in ((Implies(ms[0], ms[-1]), True),
                                  (Implies(ms[-1], ms[0]), False)):
            f = _chain(steps, conclusion)
            start = time.perf_counter()
            assert is_tautology(f) == valid
            assert time.perf_counter() - start < 1.0

    def test_over_the_cap_raises_a_typed_error(self):
        f = _chain([Atom(f"p{i}") for i in range(MAX_OPAQUE)], Know(A, Atom("p0")))
        with pytest.raises(OpaqueLimitError, match=r"\(23, limit 22\)"):
            is_tautology(f)
        d = Derivation((), (Line(f, Tautology()),), f)
        with pytest.raises(OpaqueLimitError, match=r"^line 1: too many"):
            verify(d)

    @pytest.mark.parametrize("f, valid", [
        (_nest(Not, 2000, Atom("p")), False),
        (_nest(Not, 2000, TOP), True),
        (_nest(Not, 2001, TOP), False),
        (_chain([Atom(f"q{i % 3}") for i in range(2000)], Atom("q1")), True),
        (_chain([Atom(f"q{i % 3}") for i in range(2000)], Atom("r")), False),
        (_left_chain(2000), False),
        (_left_chain(2001), True),
    ])
    def test_deep_formulas_past_the_recursion_limit(self, f, valid):
        assert is_tautology(f) == valid


BUNDLED_OK = [
    "positive_introspection.proof",
    "strategic_negative_introspection.proof",
    "how_coalition_widening.proof",
    "contrapositive_of_truth.proof",
    "contrapositive_of_negative_introspection.proof",
    "contrapositive_of_strategic_positive_introspection.proof",
]

BUNDLED_BAD = [
    ("bad_necessitation_on_hypothesis.proof", 2, "mode violation"),
    ("bad_cooperation_overlap.proof", 2, "not an instance of Cooperation"),
    ("bad_perfect_recall_empty_coalition.proof", 2, "not an instance of PerfectRecall"),
]


@pytest.mark.parametrize("filename", BUNDLED_OK)
def test_bundled_derivations_verify(filename):
    result = verify(parse_derivation(proof_text(filename)))
    assert result.ok, f"{filename}: {result}"


@pytest.mark.parametrize("filename,line,reason", BUNDLED_BAD)
def test_bundled_negative_controls_fail_at_the_right_line(filename, line, reason):
    result = verify(parse_derivation(proof_text(filename)))
    assert not result.ok
    assert result.line == line
    assert reason in result.reason


def test_verify_diagnoses_bad_references_and_mismatches():
    p = Atom("p")
    d = Derivation((), (Line(p, ModusPonens(1, 2)),), p)
    assert "bad line reference" in verify(d).reason

    d = Derivation(
        (),
        (Line(parse("p -> p"), Tautology()),
         Line(parse("q"), ModusPonens(1, 1))),
        parse("q"))
    r = verify(d)
    assert r.line == 2 and "not (line 1 -> this line)" in r.reason

    d = Derivation((), (Line(parse("p -> p"), Tautology()),), parse("q -> q"))
    r = verify(d)
    assert not r.ok and "goal" in r.reason


class _Foreign(Justification):
    """A justification ``verify`` does not know."""

    __slots__ = ()

    def __repr__(self):
        return "_Foreign()"


@pytest.mark.parametrize("derivation, message", [
    (Derivation((), (), parse("p -> p")), "derivation has no lines"),
    (Derivation((("h1", Atom("p")),), (Line(Atom("p"), Hypothesis(1, "h2")),),
                Atom("p")),
     "line 1: unknown hypothesis 'h2'"),
    (Derivation((), (Line(parse("p -> p"), _Foreign()),), parse("p -> p")),
     "line 1: unknown justification _Foreign()"),
], ids=["no-lines", "hypothesis-index", "foreign-justification"])
def test_verify_refuses_derivations_built_in_code(derivation, message):
    result = verify(derivation)
    assert (result.ok, str(result)) == (False, message)


def test_verify_checks_necessitation_shape_and_mode():
    taut = Line(parse("p -> p"), Tautology())
    good = Derivation(
        (), (taut, Line(parse("K{a} (p -> p)"), Necessitation(1, A))),
        parse("K{a} (p -> p)"))
    assert verify(good).ok

    wrong_shape = Derivation(
        (), (taut, Line(parse("K{b} (p -> p)"), Necessitation(1, A))),
        parse("K{b} (p -> p)"))
    assert not verify(wrong_shape).ok

    hyp = Derivation(
        (("h1", Atom("p")),),
        (Line(Atom("p"), Hypothesis(0, "h1")),
         Line(parse("H{a} p"), StrategicNecessitation(1, A))),
        parse("H{a} p"))
    r = verify(hyp)
    assert r.line == 2 and "mode violation" in r.reason


def test_necessitations_print_their_coalition_as_formulas_do():
    assert str(Necessitation(3, frozenset({"b", "a"}))) == "nec{a,b} 3"
    assert str(StrategicNecessitation(1, frozenset())) == "snec{} 1"


def test_modus_ponens_from_hypotheses_is_allowed():
    d = Derivation(
        (("h1", Atom("p")),),
        (Line(Atom("p"), Hypothesis(0, "h1")),
         Line(parse("p -> (q -> p)"), Tautology()),
         Line(parse("q -> p"), ModusPonens(1, 2))),
        parse("q -> p"))
    assert verify(d).ok


def test_hypothesis_lines_must_match_their_hypothesis():
    d = Derivation(
        (("h1", Atom("p")),),
        (Line(Atom("q"), Hypothesis(0, "h1")),),
        Atom("q"))
    r = verify(d)
    assert r.line == 1 and "differs from hypothesis" in r.reason


class TestProofFileParsing:
    def test_line_numbering_must_be_consecutive(self):
        text = "lines:\n  1: p -> p  taut\n  3: p -> p  taut\ngoal: p -> p\n"
        with pytest.raises(ProofFormatError) as err:
            parse_derivation(text)
        assert err.value.line_no == 3

    def test_goal_required(self):
        with pytest.raises(ProofFormatError):
            parse_derivation("lines:\n  1: p -> p  taut\n")

    def test_unknown_axiom_and_label_rejected(self):
        with pytest.raises(ProofFormatError):
            parse_derivation("lines:\n  1: p -> p  axiom Nonsense\ngoal: p -> p\n")
        with pytest.raises(ProofFormatError):
            parse_derivation("lines:\n  1: p  hyp h9\ngoal: p\n")

    def test_bad_formula_reported_with_line(self):
        with pytest.raises(ProofFormatError) as err:
            parse_derivation("lines:\n  1: p ->  taut\ngoal: p\n")
        assert err.value.line_no == 2

    @pytest.mark.parametrize("line,goal", [
        ("q -> qtaut", "q -> q"), ("p -> ximp 1 2", "p -> x")])
    def test_a_justification_never_starts_inside_an_identifier(self, line, goal):
        # qtaut and ximp are identifiers, not a formula and a justification
        with pytest.raises(ProofFormatError) as err:
            parse_derivation(f"lines:\n  1: {line}\ngoal: {goal}\n")
        assert str(err.value) == "line 2: missing or malformed justification"

    def test_a_parenthesis_separates_a_justification(self):
        d = parse_derivation("lines:\n  1: (q -> q)taut\ngoal: q -> q\n")
        assert d.lines == (Line(parse("q -> q"), Tautology()),)
        assert verify(d).ok

    def test_line_numbers_are_decimal_digits(self):
        # "²" passes str.isdigit but not int(); every str.isdecimal
        # character is one that int() reads
        assert all(int(c) in range(10)
                   for c in map(chr, range(0x110000)) if c.isdecimal())
        with pytest.raises(ProofFormatError) as err:
            parse_derivation("lines:\n  \u00b2: p -> p    taut\ngoal: p -> p\n")
        assert str(err.value) == "line 2: expected 'N: formula justification'"


def _core(text):
    f = parse(text)
    return Derivation((), (Line(f, Tautology()),), f)


class TestSuperdistributivity:
    def test_identity_instance(self):
        d = derive_superdistributivity_instance(
            [A], [Atom("p")], Atom("p"), _core("p -> p"))
        assert verify(d).ok
        assert d.hypotheses == (("h1", How(A, Atom("p"))),)
        assert d.goal == How(A, Atom("p"))

    def test_two_premise_instance(self):
        d = derive_superdistributivity_instance(
            [A, frozenset({"b"})],
            [parse("p"), parse("p -> q")],
            parse("q"),
            _core("p -> ((p -> q) -> q)"))
        assert verify(d).ok
        assert d.goal == How(frozenset({"a", "b"}), Atom("q"))

    def test_three_premise_instance(self):
        core = _core("p -> (q -> (r -> (p -> (q -> r))))")
        d = derive_superdistributivity_instance(
            [frozenset({"a"}), frozenset({"b"}), frozenset({"c"})],
            [parse("p"), parse("q"), parse("r")],
            parse("p -> (q -> r)"),
            core)
        assert verify(d).ok
        assert d.goal == How(frozenset({"a", "b", "c"}), parse("p -> (q -> r)"))

    def test_overlapping_coalitions_rejected(self):
        with pytest.raises(ValueError):
            derive_superdistributivity_instance(
                [A, A], [parse("p"), parse("p -> q")], parse("q"),
                _core("p -> ((p -> q) -> q)"))

    def test_core_goal_must_be_the_implication_chain(self):
        with pytest.raises(ValueError):
            derive_superdistributivity_instance(
                [A], [Atom("p")], Atom("q"), _core("p -> p"))

    def test_core_must_verify_and_be_hypothesis_free(self):
        broken = Derivation((), (Line(parse("p -> q"), Tautology()),), parse("p -> q"))
        with pytest.raises(ValueError):
            derive_superdistributivity_instance([A], [Atom("p")], Atom("q"), broken)
        hypo = Derivation((("h1", parse("p -> p")),),
                          (Line(parse("p -> p"), Hypothesis(0, "h1")),),
                          parse("p -> p"))
        with pytest.raises(ValueError):
            derive_superdistributivity_instance([A], [Atom("p")], Atom("p"), hypo)

    def test_knowledge_variant_uses_distributivity(self):
        d = derive_k_superdistributivity_instance(
            A, [parse("p"), parse("p -> q")], parse("q"),
            _core("p -> ((p -> q) -> q)"))
        assert verify(d).ok
        assert d.goal == Know(A, Atom("q"))
        used = {line.justification.name for line in d.lines
                if isinstance(line.justification, AxiomInstance)}
        assert used == {AxiomName.DISTRIBUTIVITY}


def _emitted(n, strategic):
    """``derive_superdistributivity_instance`` (over ``{b0}``, ``{b1}``, ...)
    or ``derive_k_superdistributivity_instance`` (over ``{a}``) of premises
    ``p0..p(n-1)`` entailing ``p0``."""
    premises = [Atom(f"p{i}") for i in range(n)]
    chain = _chain(premises, premises[0])
    core = Derivation((), (Line(chain, Tautology()),), chain)
    if strategic:
        return derive_superdistributivity_instance(
            [frozenset({f"b{i}"}) for i in range(n)], premises, premises[0], core)
    return derive_k_superdistributivity_instance(A, premises, premises[0], core)


EMITTED = [(n, strategic) for n in range(2, 11) for strategic in (True, False)]


def _ten_premise_file():
    return format_derivation(_emitted(10, strategic=True))


class TestSharedSubformulas:
    def test_a_modus_ponens_line_is_the_right_of_its_implication_line(self):
        d = parse_derivation(_ten_premise_file())
        steps = [line for line in d.lines if isinstance(line.justification, ModusPonens)]
        assert len(steps) == 20
        for line in steps:
            implication = d.lines[line.justification.implication - 1].formula
            antecedent = d.lines[line.justification.antecedent - 1].formula
            assert line.formula is implication.right
            assert implication.left == antecedent
        assert verify(d).ok

    def test_the_parser_calls_on_the_ten_premise_file_are_pinned(self, monkeypatch):
        # recorded when one memo was first shared by the formulas of a file;
        # parsing each formula afresh took 331 ``formula`` and 413 ``unary``
        # calls, so a lost reuse shows here
        calls = {"formula": 0, "unary": 0}
        for name in calls:
            method = getattr(formula_module._Parser, name)

            def counted(self, *args, _method=method, _name=name):
                calls[_name] += 1
                return _method(self, *args)

            monkeypatch.setattr(formula_module._Parser, name, counted)
        parse_derivation(_ten_premise_file())
        assert calls == {"formula": 103, "unary": 93}

    def test_no_node_is_shared_between_two_files(self):
        text = _ten_premise_file()
        first, second = parse_derivation(text), parse_derivation(text)
        assert first == second
        assert all(a.formula is not b.formula
                   for a, b in zip(first.lines, second.lines))


BUNDLED = BUNDLED_OK + [name for name, _, _ in BUNDLED_BAD]


def _assert_round_trip(d):
    again = parse_derivation(format_derivation(d))
    assert again == d and hash(again) == hash(d)
    assert verify(again) == verify(d)


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_proofs_round_trip_through_format(name):
    _assert_round_trip(parse_derivation(proof_text(name)))


@pytest.mark.parametrize("n, strategic", EMITTED,
                         ids=[f"{'H' if strategic else 'K'}-{n}" for n, strategic in EMITTED])
def test_emitted_derivations_round_trip_through_format(n, strategic):
    _assert_round_trip(_emitted(n, strategic))


# ``_JUST_RE`` opens with a lookahead on the letters its alternatives start
# with; without it the pattern must find the same match in every body
_GUARD = "(?=[tamsnh])"
_UNGUARDED = re.compile(_JUST_RE.pattern.removeprefix(_GUARD))

JUSTIFICATION_EDGES = [
    "q -> qtaut", "x -> taut    taut", "p    hyp hyp", "p    snec{a} 1",
    "p  nec{ a , b } 2", "p    mp 1 2   ", "p axiom   Truth",
    "K{a} p -> H{a} (p -> n)",  # no justification
]


def _line_bodies(text):
    """What follows ``N:`` on each numbered line, as ``parse_derivation``
    hands it to ``_JUST_RE``."""
    for raw in text.splitlines():
        number, colon, body = raw.partition("#")[0].strip().partition(":")
        if colon and number.strip().isdecimal():
            yield body


def _disagreements(guarded, bodies):
    """The bodies where ``guarded`` and the unguarded pattern differ in the
    span or the groups of their match."""
    def scan(pattern, body):
        m = pattern.search(body)
        return m and (m.span(), m.groupdict())

    return [b for b in bodies if scan(guarded, b) != scan(_UNGUARDED, b)]


@pytest.mark.parametrize("bodies", [
    [body for name in BUNDLED for body in _line_bodies(proof_text(name))],
    [body for case in EMITTED
     for body in _line_bodies(format_derivation(_emitted(*case)))],
    JUSTIFICATION_EDGES,
], ids=["bundled", "emitted", "edges"])
def test_the_justification_guard_changes_no_match(bodies):
    assert _JUST_RE.pattern.startswith(_GUARD)
    assert len(bodies) >= 8
    assert _disagreements(_JUST_RE, bodies) == []


def test_a_guard_missing_a_letter_changes_a_match():
    planted = re.compile("(?=[tamnh])" + _UNGUARDED.pattern)
    assert _disagreements(planted, JUSTIFICATION_EDGES) == ["p    snec{a} 1"]
