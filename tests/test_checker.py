import importlib
import itertools
import random
import time
from dataclasses import replace
from pathlib import Path

import pytest

from knowhow import checker, harness
from knowhow.checker import (
    HorizonError, RegularityError, TypeBudgetError, UndeclaredAgentError,
    Verdict, evaluate, evaluate_naive, witness,
)
from knowhow.fixtures import fixture_text, read_claims
from knowhow.formula import (
    MAX_NESTING, Atom, How, Implies, Know, NestingError, Not, h_depth, parse,
    uses_empty_coalition,
)
from knowhow.harness import (
    GenParams, LemmaReport, _check_history_relation, _coalitions, gen_formula,
    gen_system, lemma_suite,
)
from knowhow.system import (
    EpistemicTransitionSystem, InvalidHistoryError, Profile, History,
    hist_indist, load_system, parse_history, histories_of_length,
    profile_agrees, state_indist, validate_history,
)

A = frozenset({"a"})
AB = frozenset({"a", "b"})

def _checks(name):
    """Every check of a bundled claim list, as (literal, formula, expected)."""
    return [check[:3] for _, checks in read_claims(fixture_text(name, ".claims"))
            for check in checks]


@pytest.mark.parametrize("literal,text,expected", _checks("t1"))
def test_t1_claims_on_both_evaluators(t1, literal, text, expected):
    h = parse_history(t1, literal)
    f = parse(text)
    assert evaluate(t1, h, f).value is expected
    assert evaluate_naive(t1, h, f).value is expected


@pytest.mark.parametrize("literal,text,expected", _checks("t2"))
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
    assert w.strategy == Profile.of({"a": "0"})
    assert witness(t1, parse_history(t1, "w1"), A, parse("p")).strategy is None
    w = witness(t2, parse_history(t2, "w0"), AB, parse("p"))
    assert w.strategy == Profile.of({"a": "1", "b": "1"})


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
                    found = witness(t1, h, coalition, body, horizon=3).strategy
                    assert (found is not None) is has, (h, coalition, body)
                    naive = evaluate_naive(t1, h, How(coalition, body), horizon=3)
                    assert naive.strategy == found, (h, coalition, body)
                    seen.add((coalition, has))
    assert len(seen) == 4  # both verdicts occur for both coalitions


def test_empty_coalition_witness_is_the_empty_profile(t1):
    h = parse_history(t1, "w2")
    got = witness(t1, h, frozenset(), parse("p -> p"), horizon=2)
    assert got.strategy == Profile(())
    assert witness(t1, h, frozenset(), parse("p"), horizon=2).strategy is None


CHAINS = {
    "negation": Not,
    "implication": lambda f: Implies(Atom("p"), f),
}


def _chain(shape: str, depth: int):
    f = Atom("p")
    for _ in range(depth):
        f = CHAINS[shape](f)
    return f


@pytest.mark.parametrize("shape", sorted(CHAINS))
def test_formulas_built_past_the_nesting_limit_are_refused(t1, shape):
    h = parse_history(t1, "w0")
    deep = _chain(shape, 2000)
    for call in (lambda: evaluate(t1, h, deep), lambda: evaluate_naive(t1, h, deep),
                 lambda: witness(t1, h, A, deep)):
        with pytest.raises(NestingError, match=f"deeper than {MAX_NESTING} levels"):
            call()
    with pytest.raises(NestingError):
        evaluate(t1, h, _chain(shape, MAX_NESTING + 1))
    at_limit = _chain(shape, MAX_NESTING)
    assert evaluate(t1, h, at_limit) == evaluate_naive(t1, h, at_limit)
    # "H{a} " opens one level, and "(" one more before an implication
    below = _chain(shape, MAX_NESTING - (2 if shape == "implication" else 1))
    assert witness(t1, h, A, below) == evaluate_naive(t1, h, How(A, below))


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
    v = evaluate(t1, parse_history(t1, "w0 ; a=1 ; w1"), parse("K{} (p -> p)"),
                 horizon=2)
    assert v.value is True and v.bounded is True
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


def test_nonregular_systems_are_refused():
    ets = load_system("agents: a\nchoices: 0 1\nstates: w0\ntrans w0 [a=0] w0\n")
    with pytest.raises(RegularityError):
        evaluate(ets, History(("w0",), ()), parse("p"))


def test_regularity_error_names_the_first_gap_and_counts_them():
    # built in code, so no loader saw it; w1 has no move at all
    zero, one = Profile.of({"a": "0"}), Profile.of({"a": "1"})
    ets = EpistemicTransitionSystem(
        ["a"], ["w0", "w1"], ["0", "1"], {}, [("w0", zero, "w0")], {})
    h = History(("w0",), ())
    for check in (evaluate, evaluate_naive):
        with pytest.raises(RegularityError) as err:
            check(ets, h, parse("p"))
        assert str(err.value) == (
            "system is not regular: no successor for state 'w0' under "
            "profile a=1 (3 violations)")
    # the history is checked first: a step that is no move is reported, not a gap
    with pytest.raises(InvalidHistoryError):
        evaluate(ets, History(("w0", "w1"), (one,)), parse("p"))


def test_histories_are_validated(t1):
    foreign = History(("w0", "w2"), (Profile.of({"a": "0"}),))
    with pytest.raises(InvalidHistoryError):
        evaluate(t1, foreign, parse("p"))


@pytest.mark.parametrize("text", ["K{a} p", "H{a} p", "H{a} H{a} p", "!K{a} !p"])
def test_a_history_built_in_code_steps_as_the_parsed_one(t1, text):
    # the moves are found by votes and target, whatever the profile objects
    parsed = parse_history(t1, "w0 ; a=1 ; w1 ; a=0 ; w2")
    built = History(("w0", "w1", "w2"), (Profile.of({"a": "1"}), Profile.of({"a": "0"})))
    assert built == parsed and built.profiles[0] is not parsed.profiles[0]
    assert validate_history(t1, built) == validate_history(t1, parsed)
    f = parse(text)
    for decide in (evaluate, evaluate_naive):
        assert decide(t1, built, f) == decide(t1, parsed, f)


def test_a_step_that_is_no_move_raises_one_error_everywhere(t1):
    message = "(w0 ; a=1 ; w2) is not a mechanism transition"
    with pytest.raises(InvalidHistoryError) as err:
        parse_history(t1, "w0 ; a=1 ; w2")
    assert str(err.value) == message
    h = History(("w0", "w2"), (Profile.of({"a": "1"}),))
    for decide in (evaluate, evaluate_naive):
        with pytest.raises(InvalidHistoryError) as err:
            decide(t1, h, parse("p"))
        assert str(err.value) == message


def test_a_history_through_an_undeclared_state_is_refused(t1):
    for decide in (evaluate, evaluate_naive):
        with pytest.raises(InvalidHistoryError) as err:
            decide(t1, History(("zz",), ()), parse("p"))
        assert str(err.value) == "undeclared state 'zz' in history"


@pytest.mark.parametrize("text", ["K{zz} p", "H{zz} p", "K{a,zz} p",
                                  "p -> !H{a} K{zz} q"])
def test_a_formula_naming_an_undeclared_agent_is_refused(t1, text):
    h = parse_history(t1, "w0")
    f = parse(text)
    for call in (lambda: evaluate(t1, h, f), lambda: evaluate_naive(t1, h, f),
                 lambda: witness(t1, h, A, f)):
        with pytest.raises(UndeclaredAgentError, match="undeclared agent 'zz'"):
            call()


def _queries(ets, params, count, rng):
    """``count`` (anchor, formula, horizon) triples over ``ets``; every
    fifth formula may use the empty coalition, at the horizon floor."""
    agents, props = tuple(sorted(ets.agents)), tuple(sorted(ets.valuation))
    queries = []
    for i in range(count):
        empty = i % 5 == 0
        f = gen_formula(params, props, agents, allow_empty_coalition=empty,
                        salt=i)
        h = rng.choice(histories_of_length(ets, rng.randint(0, 1 if empty else 2)))
        queries.append((h, f, h.length + h_depth(f) if empty else None))
    return queries


def test_views_are_built_once_per_system_and_coalition(monkeypatch):
    built = []
    init = checker._View.__init__

    def counting(self, ets, states, coalition):
        built.append((id(ets), coalition))
        init(self, ets, states, coalition)

    monkeypatch.setattr(checker._View, "__init__", counting)
    params = GenParams(seed=6, num_agents=3, formula_depth=2)
    systems = [gen_system(replace(params, seed=seed)) for seed in (6, 7)]
    rng = random.Random(6)
    for ets in systems:
        for h, f, horizon in _queries(ets, params, 100, rng):
            evaluate(ets, h, f, horizon)
    assert len(built) == len(set(built))
    assert {ets for ets, _ in built} == {id(ets) for ets in systems}


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _view_systems(monkeypatch):
    """Random systems of 1-3 agents, and the benchmark's models as loaded."""
    for agents in (1, 2, 3):
        for seed in (1, 2):
            yield gen_system(GenParams(seed=seed, num_states=3, num_agents=agents,
                                       num_choices=3 if agents == 1 else 2,
                                       branching=1.5))
    monkeypatch.syspath_prepend(str(PERFBENCH))
    gen, workloads = importlib.import_module("gen"), importlib.import_module("workloads")
    for inputs in (workloads.check_inputs, workloads.horizon_inputs):
        models, _ = inputs(1, 1.0)
        for model in models:
            yield load_system(gen.model_text(model))


def test_views_number_moves_as_the_relations_tell_them_apart(monkeypatch):
    systems = 0
    for ets in _view_systems(monkeypatch):
        systems += 1
        states = sorted(ets.states)
        moves = [(w, i, s, v) for w in states
                 for i, (s, v) in enumerate(ets.successors(w))]
        # every move holds one of the system's own complete profile objects
        own = set(map(id, ets.complete_profiles))
        assert all(id(s) in own for _, _, s, _ in moves)
        for coalition in _coalitions(ets.agents, include_empty=False):
            view = checker._View(ets, states, coalition)
            assert view.profiles == ets.profiles_over(coalition)
            assert all(view.alike[w].keys() == set(view.sees[w]) for w in states)
            for w, i, s, v in moves:
                assert profile_agrees(view.profiles[view.picks[w][i]], s, coalition)
                assert view.alike[w][view.sees[w][i]] == [
                    j for j, seen in enumerate(view.sees[w])
                    if seen == view.sees[w][i]]
            for (w1, i1, s1, v1), (w2, i2, s2, v2) in itertools.product(moves, repeat=2):
                alike = (profile_agrees(s1, s2, coalition)
                         and state_indist(ets, v1, v2, coalition))
                assert (view.sees[w1][i1] == view.sees[w2][i2]) == alike, (
                    coalition, (w1, s1, v1), (w2, s2, v2))
    assert systems == 6 + 32 + 64  # generated, then every loaded model


def test_evaluations_sharing_a_system_agree_with_fresh_systems():
    # the views an evaluation leaves on a system must not change a later
    # evaluation's verdict, whatever the order
    params = GenParams(seed=12, formula_depth=2)
    shared = gen_system(params)
    queries = _queries(shared, params, 200, random.Random(12))
    random.Random(13).shuffle(queries)
    verdicts = [evaluate(shared, h, f, horizon) for h, f, horizon in queries]
    assert verdicts == [evaluate(gen_system(params), h, f, horizon)
                        for h, f, horizon in queries]
    assert verdicts == [evaluate_naive(shared, h, f, horizon)
                        for h, f, horizon in queries]
    assert {v.value for v in verdicts} == {True, False}


def test_memoized_and_naive_agree_on_random_triples():
    # whole verdicts, witness included, over 3-agent systems
    params = GenParams(seed=5, num_states=3, num_agents=3, num_choices=2,
                       branching=1.1, formula_depth=3, history_depth=2)
    rng = random.Random(99)
    lengths, witnesses = set(), 0
    for i in range(80):
        ets = gen_system(replace(params, seed=i))
        agents = tuple(sorted(ets.agents))
        f = gen_formula(replace(params, seed=i), ("p", "q"), agents, salt=i)
        h = rng.choice(histories_of_length(ets, rng.randint(0, 2)))
        lengths.add(h.length)
        verdict = evaluate(ets, h, f)
        assert verdict == evaluate_naive(ets, h, f), (str(f), str(h))
        witnesses += verdict.strategy is not None
    assert lengths == {0, 1, 2} and witnesses > 0


# agent a cannot tell w0 from w1, agent b w1 from w2, and b's vote decides
# where w0 goes; classes along a chain of K{a} H{b} grow with its depth
CHAIN = """
agents: a b
choices: 0 1
states: w0 w1 w2
indist a: w0 w1
indist b: w1 w2
trans w0 [b=0] w1
trans w0 [b=1] w2
trans w1 [] w0
trans w1 [] w2
trans w2 [] w0
valuation p: w1
"""


def _chain_goal(n: int):
    return parse("K{a} H{b} " * n + "p")


def test_deep_knowledge_chains_decide_on_types():
    ets = load_system(CHAIN)
    values = set()
    for n in (1, 2):
        for h in histories_of_length(ets, 0) + histories_of_length(ets, 1):
            verdict = evaluate(ets, h, _chain_goal(n))
            assert verdict == evaluate_naive(ets, h, _chain_goal(n)), (n, str(h))
            values.add(verdict.value)
    assert values == {True, False}
    for h in histories_of_length(ets, 0):
        assert evaluate(ets, h, _chain_goal(3)) == evaluate_naive(ets, h, _chain_goal(3))
    start = time.perf_counter()
    evaluate(ets, parse_history(ets, "w0"), _chain_goal(37))
    assert time.perf_counter() - start < 1.0


def test_many_coalitions_deep_in_a_formula_stay_fast():
    # types carry only the nodes their own formula reaches, not every
    # coalition of the formula at every depth
    ets = gen_system(GenParams(seed=3, num_states=4, num_agents=3,
                               branching=1.5))
    h = histories_of_length(ets, 3)[100]
    f = parse("K{a0} H{a1,a2} K{a0,a2} (p -> H{a1} K{a0,a1,a2} H{a2} q)")
    start = time.perf_counter()
    evaluate(ets, h, f)
    assert time.perf_counter() - start < 0.5


def test_shared_subformulas_are_walked_once(t1):
    f = parse("K{a} p")
    for _ in range(22):
        f = Not(Implies(f, f))
    h = parse_history(t1, "w0")
    for walk in (uses_empty_coalition, h_depth, checker._Types(t1).nodes,
                 lambda f: evaluate(t1, h, f)):
        start = time.perf_counter()
        walk(f)
        assert time.perf_counter() - start < 0.5


def _empty_coalition_cases():
    """(system, anchor, formula, horizon) with ``K{}``/``H{}`` in the formula,
    over 80 ``gen_system`` seeds in two shapes and anchors of length 0-1.

    The horizon is the floor, or one above it when the floor is below 3:
    the naive oracle re-walks every level for each history of an outer
    walk, so nested ``H{} H{}`` at horizon 4 would take seconds per case.
    """
    rng = random.Random(7)
    for seed in range(80):
        states, agents = (3, 1) if seed % 2 else (2, 2)
        params = GenParams(seed=seed, num_states=states, num_agents=agents,
                           branching=1.0 + 0.2 * (seed % 3 == 0))
        ets = gen_system(params)
        formulas = [gen_formula(params, tuple(sorted(ets.valuation)),
                                tuple(sorted(ets.agents)),
                                allow_empty_coalition=True, salt=salt)
                    for salt in range(80)]
        pool = [g for n in range(2) for g in histories_of_length(ets, n)]
        for f in [f for f in formulas if uses_empty_coalition(f)][:3]:
            h = rng.choice(pool)
            floor = h.length + h_depth(f)
            yield ets, h, f, floor + (rng.randint(0, 1) if floor < 3 else 0)


def test_memoized_and_naive_agree_on_whole_verdicts_with_empty_coalitions():
    outcomes = set()
    counterexamples = 0
    for ets, h, f, horizon in _empty_coalition_cases():
        verdict = evaluate(ets, h, f, horizon)
        assert verdict == evaluate_naive(ets, h, f, horizon), (f, str(h), horizon)
        outcomes.add((verdict.value, verdict.bounded))
        counterexamples += verdict.counterexample is not None
    assert {value for value, _ in outcomes} == {True, False}
    assert {bounded for _, bounded in outcomes} == {True, False}
    assert counterexamples > 0


# A walk E behind a guard: whether a K{C}/H{C} runs E depends on which
# member it decides first, so these goals pin the members' order wherever
# a body reaches a K{}/H{}.  Sorting those members too makes ``bounded``
# disagree with the oracle on 22 of these 1200 goals.
GUARDED_WALKS = ("K{C} !(q -> !E)", "H{C} !(q -> !E)", "K{C} K{D} !(q -> !E)",
                 "H{C} (K{D} q -> E)")
WALKS = ("K{} p", "K{} (p -> p)", "H{} !false", "H{} p")


def _guarded_walk_cases():
    """1200 guarded-walk goals over 2-4-state systems, anchored at length
    0-2, at the horizon floor plus a drawn 0/1."""
    rng = random.Random(24)
    coalitions = ("a0", "a1", "a0,a1")
    for seed in range(60):
        ets = gen_system(GenParams(seed=seed, num_states=2 + seed % 3,
                                   branching=1.0 + 0.2 * (seed % 2)))
        for _ in range(20):
            text = rng.choice(GUARDED_WALKS).replace("E", rng.choice(WALKS))
            f = parse(text.replace("C", rng.choice(coalitions))
                      .replace("D", rng.choice(coalitions)))
            h = rng.choice(histories_of_length(ets, rng.randint(0, 2)))
            yield ets, h, f, h.length + h_depth(f) + rng.randint(0, 1)


def test_guarded_walks_agree_with_the_oracle_on_whole_verdicts():
    outcomes = set()
    for ets, h, f, horizon in _guarded_walk_cases():
        verdict = evaluate(ets, h, f, horizon)
        assert verdict == evaluate_naive(ets, h, f, horizon), (str(f), str(h), horizon)
        outcomes.add((verdict.value, verdict.bounded, verdict.strategy is not None))
    assert {value for value, _, _ in outcomes} == {True, False}
    assert {bounded for _, bounded, _ in outcomes} == {True, False}
    assert (True, True, True) in outcomes


def _random_deep_cases():
    """About 300 random depth 4-6 formulas, empty coalitions allowed, over
    3-state systems with branching 1.0.

    The naive oracle re-walks an inner ``K{}``/``H{}`` for every history of
    an outer one, and with two agents a level is four times the last, so a
    formula with an empty coalition has its floor at most 4 with one agent
    and at most 2 with two.
    """
    rng = random.Random(6)
    for i in range(320):
        agents = 1 + i % 2
        params = GenParams(seed=i // 2, num_states=3, num_agents=agents,
                           branching=1.0, formula_depth=4 + i % 3)
        ets = gen_system(params)
        f = gen_formula(params, tuple(sorted(ets.valuation)),
                        tuple(sorted(ets.agents)), allow_empty_coalition=True,
                        salt=i)
        if not uses_empty_coalition(f):
            yield ets, rng.choice(histories_of_length(ets, rng.randint(0, 2))), f, None
            continue
        top = 6 - 2 * agents
        if h_depth(f) <= top:
            h = rng.choice(histories_of_length(ets, rng.randint(0, min(2, top - h_depth(f)))))
            yield ets, h, f, h.length + h_depth(f)


def test_random_deep_formulas_agree_with_the_oracle_on_whole_verdicts():
    outcomes, walked = set(), 0
    for ets, h, f, horizon in _random_deep_cases():
        verdict = evaluate(ets, h, f, horizon)
        assert verdict == evaluate_naive(ets, h, f, horizon), (str(f), str(h), horizon)
        outcomes.add((verdict.value, verdict.bounded))
        walked += horizon is not None
    assert outcomes == {(True, False), (False, False), (True, True), (False, True)}
    assert walked > 50


def _alternating_chain(n: int):
    """``... K{a0} H{a1} p``, ``n`` modalities deep, ``H{a1}`` innermost."""
    f = Atom("p")
    for k in range(n):
        f = (How if k % 2 == 0 else Know)(frozenset({f"a{1 - k % 2}"}), f)
    return f


def _keeping_types(monkeypatch):
    built = []
    init = checker._Types.__init__

    def keeping(self, ets):
        built.append(self)
        init(self, ets)

    monkeypatch.setattr(checker._Types, "__init__", keeping)
    return built


def test_a_deep_chain_decides_on_set_types(monkeypatch):
    # members kept in first-seen order split this chain into 25,134 types
    ets = gen_system(GenParams(seed=3, num_states=4, branching=2.0))
    h = histories_of_length(ets, 3)[0]
    built = _keeping_types(monkeypatch)
    start = time.perf_counter()
    verdict = evaluate(ets, h, _alternating_chain(12))
    assert time.perf_counter() - start < 3.0
    assert verdict == Verdict(False)
    assert len(built[-1].types) < 10_000
    assert built[-1].entries <= checker.MAX_TYPE_ENTRIES


def test_the_type_budget_counts_member_entries_and_spares_the_oracle(
        monkeypatch):
    ets = gen_system(GenParams(seed=3, num_states=4, branching=2.0))
    h = histories_of_length(ets, 2)[5]
    f = _alternating_chain(4)
    built = _keeping_types(monkeypatch)
    verdict = evaluate(ets, h, f)
    entries = built[-1].entries
    assert entries == sum(len(m) for _, members in built[-1].types
                          for m in members.values()) > 0
    monkeypatch.setattr(checker, "MAX_TYPE_ENTRIES", entries)
    assert evaluate(ets, h, f) == verdict
    monkeypatch.setattr(checker, "MAX_TYPE_ENTRIES", entries - 1)
    with pytest.raises(TypeBudgetError, match=f"more than {entries - 1} "):
        evaluate(ets, h, f)
    assert evaluate_naive(ets, h, f) == verdict


# agent a cannot tell the states apart, so K{a} p holds at a history iff
# every history of its length ends in w2: false up to length 1, true from 2
COUNTDOWN = """
agents: a
choices: 0
states: w0 w1 w2
indist a: w0 w1 w2
trans w0 [] w1
trans w1 [] w2
trans w2 [] w2
valuation p: w2
"""


def _countdown_cases():
    """Goals that hold up to horizon 1 and are refuted at horizon 2."""
    ets = load_system(COUNTDOWN)
    h = parse_history(ets, "w0")
    for text in ("K{} !K{a} p", "H{} !K{a} p", "!H{} !K{a} p"):
        for horizon in (1, 2, 3):
            yield ets, h, parse(text), horizon


def test_unbounded_verdicts_are_unchanged_at_a_larger_horizon():
    unbounded = 0
    for ets, h, f, horizon in itertools.chain(_empty_coalition_cases(),
                                              _countdown_cases()):
        for decide in (evaluate, evaluate_naive):
            verdict = decide(ets, h, f, horizon)
            if verdict.bounded:
                continue
            unbounded += 1
            wider = decide(ets, h, f, horizon + 1)
            assert (wider.value, wider.bounded, wider.counterexample) == (
                verdict.value, False, verdict.counterexample), (f, str(h), horizon)
    assert unbounded > 0


def test_countdown_goals_are_bounded_until_refuted():
    # the metamorphic test above only has teeth where a larger horizon
    # changes a value; here it does, between horizons 1 and 2
    for ets, h, f, horizon in _countdown_cases():
        for decide in (evaluate, evaluate_naive):
            verdict = decide(ets, h, f, horizon)
            refuted = horizon >= 2
            assert verdict.bounded is not refuted
            assert verdict.value is (refuted if isinstance(f, Not) else not refuted)


def _countdown(n: int) -> str:
    """A count from ``n`` down to 0 kept in the state, one move per state,
    beside a loop at ``z``.

    Agent a cannot tell the counting states apart and agent b tells all
    states apart, so every history of length k from ``c{j}`` ends in
    ``c{max(j - k, 0)}`` and ``K{a} p`` (``p`` only at ``c0``) holds there
    exactly from length n on.  The histories that stay in ``z`` keep one
    type at every length, so each level repeats a type beside its new ones.
    """
    counts = " ".join(f"c{k}" for k in range(n + 1))
    lines = ["agents: a b", "choices: 0", f"states: {counts} z",
             f"indist a: {counts}", "valuation p: c0", "trans c0 [] c0",
             "trans z [] z"]
    lines += [f"trans c{k} [] c{k - 1}" for k in range(1, n + 1)]
    return "\n".join(lines) + "\n"


# (goal, first refuting level as a function of the count n); the first
# refutation sits at the last level a walk to that horizon reaches
LATE_REFUTATIONS = [
    ("K{} !K{a} p", lambda n: n),
    ("H{} !K{a} p", lambda n: n),
    ("!H{} !K{a} p", lambda n: n),
    ("K{} (K{b} p -> !K{a} p)", lambda n: n),
    ("K{} !H{a} K{a} p", lambda n: n - 1),
    ("H{} !K{b} H{b} K{a} p", lambda n: n - 1),
]
# goals no level refutes; their walks close once the count has run out
CLOSING = ["K{} (K{a} p -> p)", "H{} (K{b} p -> !K{a} !p)",
           "K{} H{a} (K{a} p -> K{b} p)", "!H{} K{} (p -> K{b} p)",
           "K{b} H{} (K{a} !p -> !p)"]


def _countdown_anchors(ets, n):
    return [parse_history(ets, f"c{n}"), parse_history(ets, f"c{n} ; a=0,b=0 ; c{n - 1}")]


@pytest.mark.parametrize("n", [2, 3, 5])
def test_a_refutation_at_the_horizon_is_found_as_the_oracle_finds_it(n):
    # closing the walk must not stop it short of a refutation at its last
    # level, and the history rebuilt from back-pointers is the oracle's
    ets = load_system(_countdown(n))
    refuted = 0
    for text, level in LATE_REFUTATIONS:
        f = parse(text)
        for h in _countdown_anchors(ets, n):
            floor = h.length + h_depth(f)
            for horizon in (level(n), level(n) - 1):
                if horizon < floor:
                    continue
                verdict = evaluate(ets, h, f, horizon)
                assert verdict == evaluate_naive(ets, h, f, horizon), (text, str(h), horizon)
                assert verdict.bounded is (horizon < level(n))
                if verdict.counterexample is not None:
                    assert verdict.counterexample.length == level(n)
                    refuted += 1
    assert refuted > 0


@pytest.mark.parametrize("n", [2, 3, 5])
def test_a_closed_walk_gives_the_oracle_verdict_and_keeps_it(n):
    ets = load_system(_countdown(n))
    for text in CLOSING:
        f = parse(text)
        for h in _countdown_anchors(ets, n):
            horizon = max(n + 2, h.length + h_depth(f))
            verdict = evaluate(ets, h, f, horizon)
            assert verdict == evaluate_naive(ets, h, f, horizon), (text, str(h))
            assert verdict.bounded
            wider = evaluate(ets, h, f, horizon + 3)
            assert wider == Verdict(verdict.value, verdict.bounded, horizon + 3,
                                    verdict.counterexample, verdict.strategy), (text, str(h))


def test_a_closed_walk_steps_as_often_at_any_horizon(t1, monkeypatch):
    # the walk stops at its closing level, so a larger horizon neither
    # types more steps nor looks more up
    built, calls = [], []
    init, step = checker._Evaluator.__init__, checker._Types.step

    def keeping(self, *args):
        built.append(self)
        init(self, *args)

    def counting(self, t, i):
        calls[-1] += 1
        return step(self, t, i)

    monkeypatch.setattr(checker._Evaluator, "__init__", keeping)
    monkeypatch.setattr(checker._Types, "step", counting)
    f, h = parse("H{} (K{a} p -> p)"), parse_history(t1, "w0")
    misses = []
    for horizon in (50, 5000):
        calls.append(0)
        verdict = evaluate(t1, h, f, horizon)
        assert (verdict.value, verdict.bounded) == (True, True)
        misses.append(sum(u is not None for row in built[-1].types.steps for u in row))
    assert misses[0] == misses[1] > 0
    assert calls[0] == calls[1]


# Knowledge types, which stand in for indistinguishability classes.  The
# member types a formula's type holds for ``M{C} x`` must be exactly the
# ``x``-types of the histories that pairwise ``hist_indist`` relates, sorted,
# or in level order when ``x`` reaches a ``K{}``/``H{}``; evaluation at any
# anchor must build no history level above 0; each (subformula, type) must be
# decided once per evaluation; and the types must stay out of the oracles:
# the naive evaluator and the lemma suite's relation checks run with the type
# table disabled.

# (branching, states, agents): level 3 stays at a few hundred histories so
# the quadratic brute force below remains quick
SHAPES = [(1.0, 3, 2), (1.2, 2, 2), (2.0, 3, 1)]
EXACT_SYSTEMS = [
    GenParams(seed=seed, num_states=states, num_agents=agents,
              branching=branching)
    for branching, states, agents in SHAPES for seed in range(7)]


@pytest.mark.parametrize(
    "params", EXACT_SYSTEMS,
    ids=[f"b{p.branching}-s{p.num_states}-a{p.num_agents}-seed{p.seed}"
         for p in EXACT_SYSTEMS])
def test_index_partition_equals_pairwise_hist_indist(params):
    # the type table indexes each class by its members' types: for K{C} x
    # they must be the x-types of the pairwise class, as a sorted set, or in
    # level order when x reaches a K{}
    ets = gen_system(params)
    types = checker._Types(ets)
    agents = frozenset(ets.agents)
    for coalition in _coalitions(ets.agents, include_empty=False):
        other = agents - coalition or agents
        for walks in (False, True):
            body = Implies(Atom("q"), Know(frozenset(), Atom("p"))) if walks else Atom("p")
            x = Know(other, body)
            f = Know(coalition, x)
            for n in range(4):
                level = histories_of_length(ets, n)
                for h in level:
                    brute = dict.fromkeys(
                        types.of(x, g.states[0], validate_history(ets, g))
                        for g in level if hist_indist(ets, h, g, coalition))
                    expected = tuple(brute) if walks else tuple(sorted(brute))
                    t = types.of(f, h.states[0], validate_history(ets, h))
                    assert types.types[t][1][f] == expected


@pytest.mark.parametrize(
    "params", EXACT_SYSTEMS,
    ids=[f"b{p.branching}-s{p.num_states}-a{p.num_agents}-seed{p.seed}"
         for p in EXACT_SYSTEMS])
def test_classes_requested_deepest_first_on_a_cold_system(params):
    # the reference verdicts come from the oracle on a second copy of the
    # system; the cold one sees only its anchors, parsed from their text
    warm, cold = gen_system(params), gen_system(params)
    rng = random.Random(params.seed)
    requests = []
    for n in range(4, -1, -1):
        level = histories_of_length(warm, n)
        batch = [(h, f)
                 for h in rng.sample(level, min(4, len(level)))
                 for coalition in _coalitions(warm.agents, include_empty=False)
                 for f in (Know(coalition, Atom("p")), How(coalition, Atom("q")))]
        rng.shuffle(batch)
        requests += batch
    for h, f in requests:
        anchor = parse_history(cold, str(h))
        assert evaluate(cold, anchor, f) == evaluate_naive(warm, h, f)
    assert len(cold._levels) <= 1


def test_evaluate_builds_no_level_above_0():
    params = GenParams(seed=3)
    ets = gen_system(params)
    literal = str(histories_of_length(gen_system(params), 3)[17])
    h = parse_history(ets, literal)
    f = parse("H{a0} K{a1} (p -> H{a0,a1} K{a0} q)")
    verdict = evaluate(ets, h, f)
    assert len(ets._levels) == 1  # the roots, which parse_history walks from
    assert verdict == evaluate_naive(gen_system(params), h, f)


def test_each_subformula_is_decided_once_per_type(monkeypatch):
    # with one block per agent a class holds a whole slice of its level, so
    # deciding each member again made nested H{} goals quadratic
    ets = gen_system(GenParams(seed=2, num_states=3))
    f = parse("H{} ((q -> H{a1} q) -> K{a0} (H{a0} H{a1} q))")
    h = histories_of_length(ets, 0)[1]
    decided, tables = [], []
    value = checker._Evaluator._value

    def counting(self, sub, t):
        decided.append((sub, t))
        tables.append(self.types)
        return value(self, sub, t)

    monkeypatch.setattr(checker._Evaluator, "_value", counting)
    verdict = evaluate(ets, h, f, horizon=3)
    monkeypatch.undo()
    assert len({id(table) for table in tables}) == 1
    assert max(len(m) for _, members in tables[0].types
               for m in members.values()) > 1
    assert len(decided) == len(set(decided))
    naive = evaluate_naive(ets, h, f, horizon=3)
    assert (verdict.value, verdict.bounded) == (naive.value, naive.bounded)


def test_empty_coalition_levels_are_enumerated_once_per_body(monkeypatch):
    # H{} inside K{} has one value at every history it is asked at, and a
    # false top-level K{}/H{} takes its counterexample from that one walk
    ets = gen_system(GenParams(seed=6, num_states=2))
    h = histories_of_length(ets, 0)[1]
    find = checker._Evaluator.find_counterexample
    for text, walks, value in (("K{} H{} H{a0,a1} (q -> q)", 2, True),
                               ("K{} p", 1, False), ("H{} p", 1, False)):
        f = parse(text)
        searched = []

        def counting(self, body, min_length):
            searched.append((body, min_length))
            return find(self, body, min_length)

        monkeypatch.setattr(checker._Evaluator, "find_counterexample", counting)
        verdict = evaluate(ets, h, f, horizon=2)
        monkeypatch.undo()
        assert len(searched) == len(set(searched)) == walks, text
        naive = evaluate_naive(ets, h, f, horizon=2)
        assert verdict.value is value
        assert verdict == naive, text


def _refuse_to_type(*args):
    raise AssertionError("the type table was consulted")


def _disable_types(monkeypatch):
    monkeypatch.setattr(checker._Types, "root", _refuse_to_type)
    monkeypatch.setattr(checker._Types, "step", _refuse_to_type)


def test_naive_oracle_never_builds_class_tables(monkeypatch):
    params = GenParams(seed=11)
    ets = gen_system(params)
    agents, props = tuple(sorted(ets.agents)), tuple(sorted(ets.valuation))
    formulas = [gen_formula(params, props, agents, salt=i) for i in range(12)]
    anchors = histories_of_length(ets, 2)[::7]
    expected = [evaluate(ets, h, f).value for h in anchors for f in formulas]

    _disable_types(monkeypatch)
    assert [evaluate_naive(ets, h, f).value
            for h in anchors for f in formulas] == expected


def test_lemma_relation_checks_never_build_class_tables(monkeypatch):
    params = GenParams(seed=4)
    _disable_types(monkeypatch)
    ets = gen_system(params)
    report = LemmaReport(params)
    rng = random.Random(0)
    for coalition in _coalitions(ets.agents, include_empty=False):
        for n in range(params.history_depth + 1):
            _check_history_relation(ets, coalition, n, rng, report, "cold", {})
    assert report.relation_checks > 0
    assert report.failures == []


def test_lemma_suite_gives_the_same_report_with_the_builder_disabled(monkeypatch):
    params = GenParams(seed=9)
    fresh = lemma_suite(params, num_systems=0,
                        extra_systems=(gen_system(params),))

    # the relation checks never type a history; the semantic laws do, so
    # with the type table disabled they are decided by the oracle
    _disable_types(monkeypatch)
    monkeypatch.setattr(harness, "evaluate", evaluate_naive)
    again = lemma_suite(params, num_systems=0,
                        extra_systems=(gen_system(params),))
    assert again.to_dict() == fresh.to_dict()
