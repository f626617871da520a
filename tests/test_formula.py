import json
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from knowhow.formula import (
    Atom, Falsum, Formula, FormulaSyntaxError, How, Implies, Know, MAX_NESTING, Not,
    TOP, format_formula, h_depth, nesting, parse, uses_empty_coalition,
)

a = frozenset({"a"})
ab = frozenset({"a", "b"})
empty = frozenset()


def test_implication_is_right_associative():
    assert parse("p -> q -> r") == Implies(Atom("p"), Implies(Atom("q"), Atom("r")))


def test_modality_parsing():
    assert parse("H{a,b} p") == How(ab, Atom("p"))
    assert parse("K{} p -> H{} p") == Implies(Know(empty, Atom("p")),
                                              How(empty, Atom("p")))


def test_negation_binds_tighter_than_implication():
    assert parse("!K{a} p -> q") == Implies(Not(Know(a, Atom("p"))), Atom("q"))


def test_true_false_keywords():
    assert parse("false") == Falsum()
    assert parse("true") == Not(Falsum())
    assert parse("!true") == Not(Not(Falsum()))


def test_modality_token_needs_brace():
    # K and H without a coalition literal are ordinary propositions
    assert parse("K -> H") == Implies(Atom("K"), Atom("H"))


def test_identifiers_allow_apostrophes():
    assert parse("w0'") == Atom("w0'")
    assert parse("K{a'} p") == Know(frozenset({"a'"}), Atom("p"))


def test_parse_is_deterministic():
    text = "!(p -> K{a,b} q) -> H{} false"
    assert parse(text) == parse(text)


def test_print_examples():
    assert format_formula(Implies(Atom("p"), Atom("p"))) == "p -> p"
    assert format_formula(How(frozenset({"b", "a"}), Falsum())) == "H{a,b} false"
    assert format_formula(Not(Implies(Atom("p"), Atom("q")))) == "!(p -> q)"
    assert format_formula(TOP) == "true"
    assert str(Know(empty, Atom("p"))) == "K{} p"


def test_print_parenthesizes_nested_implications_minimally():
    f = Implies(Implies(Atom("p"), Atom("q")), Atom("r"))
    assert format_formula(f) == "(p -> q) -> r"
    g = Know(a, Implies(Atom("p"), Atom("q")))
    assert format_formula(g) == "K{a} (p -> q)"
    assert parse(format_formula(f)) == f
    assert parse(format_formula(g)) == g


def test_syntax_error_carries_offset_and_expectations():
    with pytest.raises(FormulaSyntaxError) as err:
        parse("p ->")
    assert err.value.offset == 4
    assert "identifier" in err.value.expected

    with pytest.raises(FormulaSyntaxError) as err:
        parse("p q")
    assert err.value.offset == 2

    with pytest.raises(FormulaSyntaxError) as err:
        parse("K{a p")
    assert err.value.offset == 4
    assert set(err.value.expected) == {"','", "'}'"}

    with pytest.raises(FormulaSyntaxError) as err:
        parse("p & q")
    assert err.value.offset == 2


def test_a_stray_character_wins_over_an_earlier_syntax_error():
    # the whole text is scanned before the parser reads a token
    with pytest.raises(FormulaSyntaxError) as err:
        parse("p q $")
    assert str(err.value) == "unexpected character '$' at offset 4"


def test_duplicate_agent_in_coalition_rejected():
    with pytest.raises(FormulaSyntaxError) as err:
        parse("K{a,a} p")
    assert err.value.offset == 4


NESTED = {
    "negation": lambda d: "!" * d + "p",
    "know": lambda d: "K{a} " * d + "p",
    "how": lambda d: "H{a} " * d + "p",
    "parentheses": lambda d: "(" * d + "p" + ")" * d,
    "implication": lambda d: " -> ".join(["p"] * (d + 1)),
    # "true" is printed for "!false", and a left implication in parentheses
    "negated_true": lambda d: "!" * d + "true -> p",
    "negated_implication": lambda d: "!" * (d - 2) + "(p -> q) -> r",
}


@pytest.mark.parametrize("shape", sorted(NESTED))
def test_nesting_at_the_limit_parses_and_prints(shape):
    f = parse(NESTED[shape](MAX_NESTING))
    assert parse(format_formula(f)) == f
    assert nesting(f) <= MAX_NESTING


# where the opener of the first operand past the limit starts
PAST_THE_LIMIT_OFFSET = {
    "negation": 150, "know": 750, "how": 750, "parentheses": 150,
    "implication": 752, "negated_true": 150, "negated_implication": 152,
}


@pytest.mark.parametrize("shape", sorted(NESTED))
def test_nesting_past_the_limit_is_a_syntax_error(shape):
    with pytest.raises(FormulaSyntaxError) as err:
        parse(NESTED[shape](MAX_NESTING + 1))
    assert f"deeper than {MAX_NESTING}" in str(err.value)
    assert err.value.offset == PAST_THE_LIMIT_OFFSET[shape]


def test_very_deep_formula_fails_fast():
    with pytest.raises(FormulaSyntaxError) as err:
        parse("!" * 5000 + "p")
    assert err.value.offset == MAX_NESTING


def test_formulas_too_deep_to_parse_still_print():
    # str and repr fold the tree with an explicit stack, not one frame a level
    negations, implications = Atom("p"), Atom("p")
    for _ in range(2000):
        negations = Not(negations)
        implications = Implies(implications, Atom("q"))
    assert str(negations) == "!" * 2000 + "p"
    assert repr(negations) == "Not(" * 2000 + "Atom('p')" + ")" * 2000
    assert str(implications) == "(" * 1999 + "p" + " -> q)" * 1999 + " -> q"
    assert repr(implications) == (
        "Implies(" * 2000 + "Atom('p')" + ", Atom('q'))" * 2000)


def test_repr_examples():
    assert repr(parse("K{a} !p -> H{} false")) == (
        "Implies(Know({'a'}, Not(Atom('p'))), How({}, Falsum()))")


def test_h_depth():
    assert h_depth(Atom("p")) == 0
    assert h_depth(parse("H{a} H{a} p")) == 2
    assert h_depth(parse("K{a} H{a} p")) == 1
    assert h_depth(parse("H{a} p -> H{b} H{c} q")) == 2


def test_uses_empty_coalition():
    assert uses_empty_coalition(Know(empty, Atom("p")))
    assert not uses_empty_coalition(How(a, Atom("p")))
    assert uses_empty_coalition(Implies(Atom("p"), How(empty, Falsum())))
    assert uses_empty_coalition(parse("K{a} H{} p"))


PARITY = Path(__file__).parent / "data" / "parse_parity.json"


def _outcome(text, memo=None):
    try:
        return "ok: " + str(parse(text, memo))
    except FormulaSyntaxError as e:
        return "error: " + str(e)


def test_parse_outcomes_match_the_recorded_parser():
    # the printed tree or the exact error (message, offset, expected set) of
    # every recorded string, valid and malformed alike
    cases = json.loads(PARITY.read_text(encoding="utf-8"))["cases"]
    assert len(cases) > 300
    assert [(text, _outcome(text)) for text, _ in cases] == [tuple(c) for c in cases]


@pytest.mark.parametrize("order", ["recorded", "reversed"])
def test_one_memo_shared_by_every_recorded_string_keeps_their_outcomes(order):
    # every string may reuse what those before it left in the memo
    cases = [tuple(c) for c in json.loads(PARITY.read_text(encoding="utf-8"))["cases"]]
    if order == "reversed":
        cases.reverse()
    memo = {}
    assert [(text, _outcome(text, memo)) for text, _ in cases] == cases
    assert memo


def test_a_shared_memo_returns_one_object_per_subformula():
    memo = {}
    pq = parse("p -> q", memo)
    assert parse("(p -> q) -> r", memo).left is pq
    assert parse("r -> p -> q", memo).right is pq
    assert parse("K{a} ( p->q )", memo).sub is pq  # tokens, not spelling
    whole = parse("H{b} (p -> q) -> r -> p -> q", memo)
    assert whole.left.sub is pq and whole.right.right is pq
    assert parse("r -> p -> q", memo) is parse("r->p->q", memo)


@pytest.mark.parametrize("depth", range(MAX_NESTING - 6, MAX_NESTING + 1))
def test_a_reused_group_past_the_nesting_limit_fails_as_a_fresh_parse(depth):
    # "p -> q" is first parsed at the top, then again inside ``depth``
    # negations, where its arrow may open a level past the limit
    text = "!" * depth + "(p -> q)"
    memo = {}
    pq = parse("p -> q", memo)
    assert _outcome(text, memo) == _outcome(text)
    if depth < MAX_NESTING - 1:
        assert parse(text, memo) == parse(text)
    else:
        with pytest.raises(FormulaSyntaxError) as shared:
            parse(text, memo)
        with pytest.raises(FormulaSyntaxError) as fresh:
            parse(text)
        assert (shared.value.offset, str(shared.value)) == (
            fresh.value.offset, str(fresh.value))
        assert f"deeper than {MAX_NESTING}" in str(fresh.value)
    if depth + 1 + 3 <= MAX_NESTING:  # the group's three tokens fit: reused
        inner = parse(text, memo)
        for _ in range(depth):
            inner = inner.sub
        assert inner is pq


def test_redundant_parentheses_round_trip():
    f = parse("((((p))))")
    assert f == Atom("p")
    assert format_formula(f) == "p"
    for first, second in (("p", "((((p))))"), ("((((p))))", "p")):
        memo = {}
        assert parse(first, memo) is parse(second, memo)


def test_no_memo_outlives_a_parse():
    text = "K{a} (p -> q) -> H{} (p -> q)"
    first, second = parse(text), parse(text)
    assert first == second and first is not second
    assert first.left.sub is not second.left.sub


WHITESPACE = [chr(c) for c in range(0x110000) if chr(c).isspace()]


@pytest.mark.parametrize("space", WHITESPACE, ids=lambda c: f"U+{ord(c):04X}")
def test_every_isspace_character_separates_tokens(space):
    text = space.join(["!", "K", "{", "a", ",", "b", "}", "p", "->", "(", "q", ")"])
    assert parse(text) == Implies(Not(Know(ab, Atom("p"))), Atom("q"))
    with pytest.raises(FormulaSyntaxError) as err:
        parse("p" + space + "q")
    assert (err.value.offset, err.value.expected) == (2, ("'->'", "end of input"))


@pytest.mark.parametrize("char", ["\u200b", "\u2060", "\ufeff"])
def test_invisible_non_space_characters_are_unexpected(char):
    with pytest.raises(FormulaSyntaxError, match="unexpected character") as err:
        parse("p ->" + char + "q")
    assert err.value.offset == 4


def coalitions():
    return st.frozensets(st.sampled_from(["a", "b", "c'", "d_1"]), max_size=3)


def formulas(depth=4):
    leaves = st.one_of(
        st.just(Falsum()),
        st.builds(Atom, st.sampled_from(["p", "q", "r", "w0'"])))
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            st.builds(Not, sub),
            st.builds(Implies, sub, sub),
            st.builds(Know, coalitions(), sub),
            st.builds(How, coalitions(), sub)),
        max_leaves=depth * 4)


@given(formulas())
def test_print_parse_round_trip(f):
    g = parse(format_formula(f))
    assert g == f
    # a node hashes its operands' stored hashes, so a tree built in code
    # (``Not(Falsum())``) and its parse (``true``) hash alike
    assert hash(g) == hash(f)


@given(st.lists(formulas(), max_size=6))
def test_a_shared_memo_parses_printed_formulas_back(fs):
    memo = {}
    assert [parse(format_formula(f), memo) for f in fs] == fs


@given(formulas())
def test_nesting_is_the_depth_that_parse_counts(f):
    # behind implications up to the limit the printed text parses, and one
    # implication more is a syntax error
    for _ in range(MAX_NESTING - nesting(f)):
        f = Implies(Atom("p"), f)
    assert nesting(f) == MAX_NESTING
    assert parse(format_formula(f)) == f
    with pytest.raises(FormulaSyntaxError):
        parse(format_formula(Implies(Atom("p"), f)))


def test_nesting_measures_formulas_too_deep_to_print():
    # each layer prints as "!(f -> f)": "!", "(" and the right operand;
    # the shared operand is measured once, not 2**5000 times
    f = Atom("p")
    for _ in range(5000):
        f = Not(Implies(f, f))
    assert nesting(f) == 3 * 5000


def _size(f: Formula) -> int:
    fields = (getattr(f, name) for name in f.__slots__)  # the node's own fields
    return 1 + sum(_size(g) for g in fields if isinstance(g, Formula))


@given(formulas())
def test_h_depth_nonnegative_and_bounded_by_size(f):
    nodes = _size(f)
    assert 0 <= h_depth(f) <= nodes
