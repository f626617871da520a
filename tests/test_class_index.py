"""The per-system indistinguishability-class index behind ``indist_class``.

The index must give exactly the partition that pairwise ``hist_indist``
gives, in whatever order classes are asked for; must build each class once,
on demand, from the class of its prefix, without enumerating whole history
levels; must be shared by every later evaluation on the same system; and
must stay out of the oracles: the naive evaluator and the lemma suite's
relation checks run with it disabled.
"""
import random

import pytest

from knowhow import checker, system
from knowhow.checker import evaluate, evaluate_naive, witness
from knowhow.formula import How, Know, parse
from knowhow.harness import (
    GenParams, LemmaReport, _check_history_relation, _coalitions, gen_formula,
    gen_system, lemma_suite,
)
from knowhow.system import (
    hist_indist, histories_of_length, indist_class, parse_history,
)

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
    ets = gen_system(params)
    for coalition in _coalitions(ets.agents, include_empty=False):
        for n in range(4):
            level = histories_of_length(ets, n)
            for h in level:
                brute = {g for g in level if hist_indist(ets, h, g, coalition)}
                assert set(indist_class(ets, h, coalition)) == brute


@pytest.mark.parametrize(
    "params", EXACT_SYSTEMS,
    ids=[f"b{p.branching}-s{p.num_states}-a{p.num_agents}-seed{p.seed}"
         for p in EXACT_SYSTEMS])
def test_classes_requested_deepest_first_on_a_cold_system(params):
    # the reference levels come from a second copy of the system; the cold
    # one sees only its anchors, resolved through its own history tree
    warm, cold = gen_system(params), gen_system(params)
    rng = random.Random(params.seed)
    requests = []
    for n in range(4, -1, -1):
        level = histories_of_length(warm, n)
        batch = [(h, coalition)
                 for h in rng.sample(level, min(4, len(level)))
                 for coalition in _coalitions(warm.agents, include_empty=False)]
        rng.shuffle(batch)
        requests += batch
    for h, coalition in requests:
        anchor = parse_history(cold, str(h))
        brute = {g for g in histories_of_length(warm, h.length)
                 if hist_indist(warm, h, g, coalition)}
        assert set(indist_class(cold, anchor, coalition)) == brute
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


def test_later_evaluations_and_witness_reuse_the_tables(monkeypatch):
    ets = gen_system(GenParams(seed=5))
    refined = []
    refine = system._refine

    def counting(ets, coalition, prefix_class):
        refined.append((coalition, prefix_class))
        return refine(ets, coalition, prefix_class)

    monkeypatch.setattr(system, "_refine", counting)
    h = histories_of_length(ets, 1)[3]
    a0 = frozenset({"a0"})

    evaluate(ets, h, parse("H{a0} K{a0} p"))
    first = list(refined)
    # the length-0 histories (None), the class of h's prefix, whose
    # refinement holds h's class, and h's class for the successors
    assert len(first) == len(set(first)) == 3
    assert set(first) == {(a0, None), (a0, indist_class(ets, h.prefix, a0)),
                          (a0, indist_class(ets, h, a0))}

    evaluate(ets, h, parse("K{a0} H{a0} !p"))
    witness(ets, h, a0, parse("K{a0} p"))
    assert refined == first


def test_each_class_is_scanned_once_per_modality(monkeypatch):
    # with one block per agent a class holds a whole slice of its level, so
    # scanning it again for every member made nested H{} goals quadratic
    ets = gen_system(GenParams(seed=2, num_states=3))
    f = parse("H{} ((q -> H{a1} q) -> K{a0} (H{a0} H{a1} q))")
    h = histories_of_length(ets, 0)[1]
    scanned = []
    sat = checker._Evaluator._sat

    def counting(self, g, sub):
        if isinstance(sub, (Know, How)) and sub.coalition:
            scanned.append((sub, indist_class(ets, g, sub.coalition)))
        return sat(self, g, sub)

    monkeypatch.setattr(checker._Evaluator, "_sat", counting)
    verdict = evaluate(ets, h, f, horizon=3)
    monkeypatch.undo()
    assert max(len(cls) for _, cls in scanned) > 1
    assert len(scanned) == len({(sub, id(cls)) for sub, cls in scanned})
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


def _refuse_to_build(ets, coalition, prefix_class):
    raise AssertionError("the class index was consulted")


def test_naive_oracle_never_builds_class_tables(monkeypatch):
    params = GenParams(seed=11)
    ets = gen_system(params)
    agents, props = tuple(sorted(ets.agents)), tuple(sorted(ets.valuation))
    formulas = [gen_formula(params, props, agents, salt=i) for i in range(12)]
    anchors = histories_of_length(ets, 2)[::7]
    expected = [evaluate(ets, h, f).value for h in anchors for f in formulas]

    monkeypatch.setattr(system, "_refine", _refuse_to_build)
    cold = gen_system(params)
    assert [evaluate_naive(cold, h, f).value
            for h in anchors for f in formulas] == expected
    assert cold._classes == {}


def test_lemma_relation_checks_never_build_class_tables(monkeypatch):
    params = GenParams(seed=4)
    monkeypatch.setattr(system, "_refine", _refuse_to_build)
    ets = gen_system(params)
    report = LemmaReport(params)
    rng = random.Random(0)
    for coalition in _coalitions(ets.agents, include_empty=False):
        for n in range(params.history_depth + 1):
            _check_history_relation(ets, coalition, n, rng, report, "cold")
    assert report.relation_checks > 0
    assert report.failures == []
    assert ets._classes == {}


def test_lemma_suite_gives_the_same_report_with_the_builder_disabled(monkeypatch):
    params = GenParams(seed=9)
    fresh = lemma_suite(params, num_systems=0,
                        extra_systems=(gen_system(params),))
    warm = gen_system(params)
    lemma_suite(params, num_systems=0, extra_systems=(warm,))

    # the laws find every class they need already built; the relation
    # checks never asked for one
    monkeypatch.setattr(system, "_refine", _refuse_to_build)
    again = lemma_suite(params, num_systems=0, extra_systems=(warm,))
    assert again.to_dict() == fresh.to_dict()
