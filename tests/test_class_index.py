"""Knowledge types, which stand in for indistinguishability classes.

The member types a formula's type holds for ``M{C} x`` must be exactly the
``x``-types of the histories that pairwise ``hist_indist`` relates, sorted,
or in level order when ``x`` reaches a ``K{}``/``H{}``; evaluation at any
anchor must build no history level above 0; each (subformula, type) must be
decided once per evaluation; and the types must stay out of the oracles: the
naive evaluator and the lemma suite's relation checks run with the type
table disabled.
"""
import random

import pytest

from knowhow import checker, harness
from knowhow.checker import evaluate, evaluate_naive
from knowhow.formula import Atom, How, Implies, Know, parse
from knowhow.harness import (
    GenParams, LemmaReport, _check_history_relation, _coalitions, gen_formula,
    gen_system, lemma_suite,
)
from knowhow.system import hist_indist, histories_of_length, parse_history

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
                    brute = dict.fromkeys(types.of(x, g) for g in level
                                          if hist_indist(ets, h, g, coalition))
                    expected = tuple(brute) if walks else tuple(sorted(brute))
                    assert types.types[types.of(f, h)][1][f] == expected


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
