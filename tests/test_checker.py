import pytest

from knowhow.checker import (
    HorizonError, RegularityError, Verdict, check_claim, evaluate,
    evaluate_naive, witness,
)
from knowhow.formula import How, parse
from knowhow.harness import GenParams, gen_formula, gen_system
from knowhow.system import (
    InvalidHistoryError, Profile, History, load_system, parse_history,
    histories_of_length,
)

A = frozenset({"a"})
AB = frozenset({"a", "b"})

T1_CLAIMS = [
    ("w2", "K{a} p", False),
    ("w1 ; a=0 ; w2", "K{a} p", False),
    ("w0 ; a=1 ; w1 ; a=0 ; w2", "K{a} p", True),
    ("w1", "H{a} p", False),
    ("w1'", "H{a} p", False),
    ("w0 ; a=1 ; w1", "H{a} p", True),
    ("w0", "H{a} H{a} p", True),
]


@pytest.mark.parametrize("literal,text,expected", T1_CLAIMS)
def test_t1_claims_on_both_evaluators(t1, literal, text, expected):
    h = parse_history(t1, literal)
    f = parse(text)
    assert evaluate(t1, h, f).value is expected
    assert evaluate_naive(t1, h, f).value is expected


@pytest.mark.parametrize("literal,text,expected", [
    ("w0", "H{a,b} p", True),
    ("w0", "H{a} p", False),
    ("w0", "H{b} p", False),
])
def test_t2_claims_on_both_evaluators(t2, literal, text, expected):
    h = parse_history(t2, literal)
    f = parse(text)
    assert evaluate(t2, h, f).value is expected
    assert evaluate_naive(t2, h, f).value is expected


def test_no_coalition_achieves_falsum(t1, t2):
    assert evaluate(t1, parse_history(t1, "w1"), parse("H{a} false")).value is False
    full = parse("H{a,b,c} false")
    for w in sorted(t2.states):
        h = History((w,), ())
        assert evaluate(t2, h, full).value is False
        assert evaluate(t2, h, parse("!H{a,b,c} false")).value is True


def test_witness_examples(t1, t2):
    w = witness(t1, parse_history(t1, "w0 ; a=1 ; w1"), A, parse("p"))
    assert w is not None and w.profile == Profile.of({"a": "0"})
    assert witness(t1, parse_history(t1, "w1"), A, parse("p")) is None
    w = witness(t2, parse_history(t2, "w0"), AB, parse("p"))
    assert w is not None and w.profile == Profile.of({"a": "1", "b": "1"})


def test_witness_agrees_with_evaluate(t1):
    seen = set()
    for n in range(2):
        for h in histories_of_length(t1, n):
            for coalition in (A, frozenset()):
                for body_text in ("p", "!p", "H{a} p", "K{} (p -> p)",
                                  "p -> H{} !p", "K{} (p -> p) -> p",
                                  "!K{a} H{} p"):
                    body = parse(body_text)
                    has = evaluate(t1, h, How(coalition, body), horizon=3).value
                    found = witness(t1, h, coalition, body, horizon=3)
                    assert (found is not None) is has, (h, coalition, body)
                    seen.add((coalition, has))
    assert len(seen) == 4  # both verdicts occur for both coalitions


def test_empty_coalition_witness_is_the_empty_profile(t1):
    h = parse_history(t1, "w2")
    got = witness(t1, h, frozenset(), parse("p -> p"), horizon=2)
    assert got is not None and got.profile == Profile(())
    assert witness(t1, h, frozenset(), parse("p"), horizon=2) is None


def test_horizon_is_required_and_floor_checked(t1):
    h = parse_history(t1, "w0 ; a=1 ; w1")
    f = parse("K{} H{a} p")
    with pytest.raises(HorizonError):
        evaluate(t1, h, f)
    with pytest.raises(HorizonError):
        evaluate(t1, h, f, horizon=1)  # need length 1 + h_depth 1
    assert isinstance(evaluate(t1, h, f, horizon=2), Verdict)


def test_horizon_ignored_without_empty_coalitions(t1):
    h = parse_history(t1, "w1")
    f = parse("K{a} H{a} p")
    verdicts = {evaluate(t1, h, f, horizon=n).value for n in (None, 0, 3, 9)}
    assert len(verdicts) == 1
    assert evaluate(t1, h, f).bounded is False
    assert evaluate(t1, h, f).horizon_used == 0


def test_bounded_flag_only_on_truncated_universals(t1):
    h = parse_history(t1, "w2")
    # holds at every history up to the cap: truncated, so flagged
    v = evaluate(t1, h, parse("K{} (p -> p)"), horizon=3)
    assert v.value is True and v.bounded is True and v.horizon_used == 3
    # refuted by a concrete history: exact even though a cap was set
    v = evaluate(t1, h, parse("K{} p"), horizon=3)
    assert v.value is False and v.bounded is False
    assert v.counterexample is not None
    assert evaluate_naive(t1, v.counterexample, parse("p"), 3).value is False
    # negation of an exact refutation is exact
    v = evaluate(t1, h, parse("!H{} false"), horizon=3)
    assert v.value is True and v.bounded is False


def test_refutations_are_horizon_monotone(t1):
    h = parse_history(t1, "w2")
    for text in ("K{} p", "H{} p"):
        f = parse(text)
        first = evaluate(t1, h, f, horizon=1)
        assert first.value is False
        for n in (2, 3, 5):
            assert evaluate(t1, h, f, horizon=n).value is False


def test_empty_coalition_axiom_shape_under_shared_horizon(t1):
    # with one shared horizon a bounded K{} antecedent cannot outrun H{}
    h = parse_history(t1, "w2")
    f = parse("K{} p -> H{} p")
    for n in (1, 2, 4):
        assert evaluate(t1, h, f, horizon=n).value is True


def test_check_claim_reports(t1):
    h = parse_history(t1, "w0 ; a=1 ; w1")
    good = check_claim(t1, h, parse("H{a} p"), True)
    assert good.passed
    flipped = check_claim(t1, h, parse("H{a} p"), False)
    assert not flipped.passed and flipped.verdict.value is True
    bounded = check_claim(t1, h, parse("K{} (p -> p)"), True, horizon=2)
    assert bounded.passed and bounded.verdict.bounded


def test_nonregular_systems_are_refused():
    ets = load_system(
        "agents: a\nchoices: 0 1\nstates: w0\ntrans w0 [a=0] w0\n",
        require_regular=False)
    with pytest.raises(RegularityError):
        evaluate(ets, History(("w0",), ()), parse("p"))


def test_histories_are_validated(t1):
    foreign = History(("w0", "w2"), (Profile.of({"a": "0"}),))
    with pytest.raises(InvalidHistoryError):
        evaluate(t1, foreign, parse("p"))


def test_memoized_and_naive_agree_on_random_triples():
    params = GenParams(seed=5, num_states=3, num_agents=2, num_choices=2,
                       branching=1.1, formula_depth=3, history_depth=2,
                       horizon=5)
    from dataclasses import replace
    import random
    rng = random.Random(99)
    agree = 0
    for i in range(80):
        ets = gen_system(replace(params, seed=i))
        f = gen_formula(replace(params, seed=i), ("p", "q"),
                        tuple(sorted(ets.agents)), salt=i)
        pool = [g for n in range(2) for g in histories_of_length(ets, n)]
        h = rng.choice(pool)
        assert evaluate(ets, h, f).value == evaluate_naive(ets, h, f).value
        agree += 1
    assert agree == 80
