import random
from dataclasses import replace

import pytest

from knowhow import harness
from knowhow.checker import Verdict, evaluate
from knowhow.formula import Atom, Falsum, h_depth, parse, uses_empty_coalition
from knowhow.harness import (
    GenParams, GenParamsError, LemmaReport, check_equivalence, check_instance,
    gen_formula, gen_system, instantiate_axiom, lemma_suite, soundness_suite,
    _check_history_relation, _coalitions, _rng,
)
from knowhow.proofkit import AxiomName, match_axiom
from knowhow.system import (
    MAX_PROFILES, EpistemicTransitionSystem, check_regular, hist_indist,
    histories_of_length, profile_agrees, state_indist,
)


def test_genparams_invariants():
    for bad in ({"num_states": 0}, {"num_agents": 0}, {"num_choices": 0},
                {"history_depth": -1}, {"formula_depth": -1},
                {"history_depth": 4, "formula_depth": 4, "horizon": 5},
                {"branching": 0.5}, {"num_agents": 13},
                {"num_agents": 1, "num_choices": MAX_PROFILES + 1}):
        with pytest.raises(GenParamsError):
            GenParams(**bad)
    # exactly at the profile cap
    assert GenParams(num_agents=12).num_agents == 12
    assert GenParams(num_agents=1, num_choices=MAX_PROFILES).num_choices == MAX_PROFILES


def test_gen_system_is_deterministic_and_regular():
    p = GenParams(seed=1, num_states=2, num_agents=1, num_choices=1)
    first, second = gen_system(p), gen_system(p)
    assert first.mechanism == second.mechanism
    assert first.indist == second.indist
    assert first.valuation == second.valuation
    assert check_regular(first) == []


def test_gen_system_batch_is_always_regular():
    base = GenParams(seed=0, num_states=4, num_agents=2, num_choices=2)
    for seed in range(1000):
        assert check_regular(gen_system(replace(base, seed=seed))) == []


def test_gen_formula_depth_and_determinism():
    p = GenParams(seed=3, formula_depth=0, horizon=3)
    f = gen_formula(p, ("p",), ("a",))
    assert isinstance(f, (Atom, Falsum))
    p = GenParams(seed=3, formula_depth=3, horizon=6)
    f1 = gen_formula(p, ("p", "q"), ("a", "b"), salt=7)
    f2 = gen_formula(p, ("p", "q"), ("a", "b"), salt=7)
    assert f1 == f2
    for salt in range(50):
        f = gen_formula(p, ("p", "q"), ("a", "b"), salt=salt)
        assert h_depth(f) <= 3
        assert not uses_empty_coalition(f)


def test_gen_formula_can_include_empty_coalitions():
    p = GenParams(seed=11, formula_depth=3, horizon=6)
    hits = sum(
        uses_empty_coalition(
            gen_formula(p, ("p",), ("a",), allow_empty_coalition=True, salt=s))
        for s in range(200))
    assert hits > 0


def test_instantiate_axiom_always_matches_its_schema():
    p = GenParams(seed=5)
    rng = _rng(p, "instances")
    for schema in AxiomName:
        for _ in range(40):
            inst = instantiate_axiom(schema, rng, ("p", "q"), ("a", "b"), depth=1)
            assert schema in match_axiom(inst), (schema, inst)


def test_corrupted_instance_is_rejected_before_evaluation(t1):
    h = histories_of_length(t1, 0)[0]
    bogus = parse("K{a} p -> q")
    result = check_instance(t1, AxiomName.TRUTH, bogus, h, horizon=3)
    assert result.status == "guard_rejected"


def test_soundness_suite_is_clean_and_deterministic():
    p = GenParams(seed=8)
    first = soundness_suite(p, num_systems=4, num_instances=3)
    second = soundness_suite(p, num_systems=4, num_instances=3)
    assert first.checked == second.checked == 4 * 9 * 3
    assert first.violations == [] and first.guard_rejections == []
    assert first.to_dict() == second.to_dict()
    assert first.bounded_count == second.bounded_count


def test_soundness_suite_covers_fixture_systems(t1):
    # axioms instantiated over the bundled system, exhaustive histories
    rng = _rng(GenParams(seed=2), "fixture-instances")
    pool = [h for n in range(3) for h in histories_of_length(t1, n)]
    checked = 0
    for schema in AxiomName:
        for _ in range(4):
            inst = instantiate_axiom(schema, rng, ("p",), ("a",), depth=2)
            for h in pool:
                if uses_empty_coalition(inst) and h.length > 1:
                    continue
                result = check_instance(t1, schema, inst, h, horizon=6)
                assert result.status == "ok", (schema, inst, h)
                checked += 1
    assert checked > 200


def test_lemma_suite_clean_on_fixture_and_random_systems(t1):
    p = GenParams(seed=13, history_depth=2, horizon=4)
    report = lemma_suite(p, num_systems=2, extra_systems=(t1,))
    assert report.failures == []
    assert report.systems == 3
    assert report.relation_checks > 1000
    assert report.property_checks > 0


def test_lemma_suite_raises_when_evaluate_refutes_a_valid_law(monkeypatch):
    # a False verdict the naive oracle does not share is a checker bug, not
    # a failing law, and must not vanish from the report
    monkeypatch.setattr(harness, "evaluate",
                        lambda ets, h, f, horizon=None: Verdict(False))
    with pytest.raises(AssertionError, match="disagree"):
        lemma_suite(GenParams(seed=1), num_systems=1)


@pytest.mark.parametrize("seed, relation_checks, property_checks",
                         [(1, 15700, 41), (2, 19541, 42), (3, 16150, 41)])
def test_lemma_suite_counts_are_pinned(seed, relation_checks, property_checks):
    # counts recorded before the relation checks were made cheaper: a faster
    # suite must still check every pair it checked then
    report = lemma_suite(GenParams(seed=seed), num_systems=1)
    assert report.failures == []
    assert report.relation_checks == relation_checks
    assert report.property_checks == property_checks


def test_history_signatures_read_no_block_through_the_validating_lookup(monkeypatch):
    # each member's block table is unfolded once per level from ets.indist,
    # not looked up through ets.block once per state and member
    params = GenParams(seed=4)
    ets = gen_system(params)

    def block(self, agent, state):
        raise AssertionError("ets.block called")

    monkeypatch.setattr(EpistemicTransitionSystem, "block", block)
    report = LemmaReport(params)
    rng = random.Random(0)
    for coalition in _coalitions(ets.agents, include_empty=False):
        for n in range(params.history_depth + 1):
            _check_history_relation(ets, coalition, n, rng, report, "signature")
    assert report.relation_checks > 0
    assert report.failures == []


def _relation_without(part):
    """``hist_indist`` written out position by position, minus one part."""

    def related(ets, h1, h2, coalition):
        if not coalition:
            return True
        if part != "length" and h1.length != h2.length:
            return False
        last = -1 if part == "head state" else None
        return all(state_indist(ets, w1, w2, coalition)
                   for w1, w2 in zip(h1.states[:last], h2.states[:last])) and (
            part == "profiles" or all(
                profile_agrees(s1, s2, coalition)
                for s1, s2 in zip(h1.profiles, h2.profiles)))

    return related


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("part, symptom", [
    ("profiles", "across different signatures"),
    ("head state", "across different signatures"),
    # zip compares the positions both have: a history is related to its
    # own extensions
    ("length", "related histories of lengths 0 and"),
])
def test_lemma_suite_catches_a_broken_history_relation(monkeypatch, part,
                                                       symptom, seed):
    monkeypatch.setattr(harness, "hist_indist", _relation_without(part))
    report = lemma_suite(GenParams(seed=seed), num_systems=1)
    assert any(symptom in failure for failure in report.failures)


def test_empty_coalition_relates_histories_of_different_lengths(t1):
    h0 = histories_of_length(t1, 0)[0]
    h2 = histories_of_length(t1, 2)[0]
    assert hist_indist(t1, h0, h2, frozenset())


def test_check_equivalence_detects_injected_violations():
    items = [0, 1, 2, 3]
    # same parity, except the pair (0, 2) is severed in one direction
    def broken(x, y):
        if (x, y) == (0, 2):
            return False
        return x % 2 == y % 2

    problems = check_equivalence(items, broken)
    assert any("symmetric" in p for p in problems) or \
           any("transitive" in p for p in problems)

    def not_reflexive(x, y):
        return x != y

    assert any("reflexive" in p for p in check_equivalence(items, not_reflexive))


def test_reports_render_text_and_dict():
    p = GenParams(seed=21)
    sound = soundness_suite(p, num_systems=2, num_instances=2)
    lines = sound.to_lines()
    assert lines and lines[0].startswith("soundness:")
    assert sound.to_dict()["instances"] == sound.checked
    lemmas = lemma_suite(p, num_systems=1)
    assert lemmas.to_lines()[0].startswith("lemmas:")
    assert lemmas.to_dict()["failures"] == []


def test_axiom_instances_hold_on_t2(t2):
    # spot-check the two schemas whose side conditions bite, on the fixture;
    # t2 has 8 profiles per step, so keep empty-coalition horizons minimal
    rng = _rng(GenParams(seed=17), "t2-instances")
    pool = [h for n in range(2) for h in histories_of_length(t2, n)]
    agents = tuple(sorted(t2.agents))
    for schema in (AxiomName.PERFECT_RECALL, AxiomName.COOPERATION):
        for _ in range(6):
            inst = instantiate_axiom(schema, rng, ("p",), agents, depth=1,
                                     allow_empty=False)
            for h in pool[:10]:
                horizon = (h.length + h_depth(inst)
                           if uses_empty_coalition(inst) else None)
                assert evaluate(t2, h, inst, horizon).value, (schema, inst, h)
