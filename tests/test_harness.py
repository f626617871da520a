import hashlib
import json
import os
import random
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from knowhow import harness
from knowhow.checker import Verdict, evaluate
from knowhow.cli import main
from knowhow.formula import Atom, Falsum, h_depth, parse, uses_empty_coalition
from knowhow.harness import (
    GenParams, GenParamsError, LemmaReport, check_instance,
    gen_formula, gen_system, instantiate_axiom, lemma_suite, soundness_suite,
    _coalitions, _rng,
)
from knowhow.proofkit import AxiomName, match_axiom
from knowhow.system import (
    MAX_PROFILES, EpistemicTransitionSystem, History, Profile, check_regular,
    hist_indist, histories_of_length, profile_agrees, state_indist,
)


def test_genparams_invariants():
    for bad in ({"num_states": 0}, {"num_agents": 0}, {"num_choices": 0},
                {"history_depth": -1}, {"formula_depth": -1},
                {"branching": 0.5}, {"num_agents": 13},
                {"num_agents": 1, "num_choices": MAX_PROFILES + 1}):
        with pytest.raises(GenParamsError):
            GenParams(**bad)
    # exactly at the profile cap
    assert GenParams(num_agents=12).num_agents == 12
    assert GenParams(num_agents=1, num_choices=MAX_PROFILES).num_choices == MAX_PROFILES


def test_genparams_refuse_a_long_seed_and_more_states_than_histories():
    # a seed past the bound would make derived seeds too long to print; each
    # state is a length-0 history, so no generated system is listed first
    for seed in (2**63, -2**63, 10**4299 - 1):
        with pytest.raises(GenParamsError, match=re.escape("|seed| < 2**63")):
            GenParams(seed=seed)
    with pytest.raises(GenParamsError, match=f"more than {harness.MAX_HISTORIES} "
                                             "histories of length at most 3"):
        GenParams(num_states=harness.MAX_HISTORIES + 1)
    assert GenParams(num_states=harness.MAX_HISTORIES).num_states == harness.MAX_HISTORIES


@pytest.mark.parametrize("seed", [2**63 - 1, 1 - 2**63])
def test_a_seed_inside_its_bound_runs_both_suites(seed):
    # each suite derives its systems' seeds past the bound, unchecked
    params = GenParams(seed=seed, history_depth=1)
    assert soundness_suite(params, num_systems=2, num_instances=1).violations == []
    assert lemma_suite(params, num_systems=2).failures == []


@pytest.mark.parametrize("agents, message", [
    (18, "makes 786431 pairs for the lemma suite, more than 300000: 1 histories"),
    (19, "makes more than 300000 pairs for the lemma suite: its 19 agents form "
         "2^19 coalitions")])
def test_coalitions_past_the_lemma_pair_cap_are_not_counted_out(agents, message):
    ets = gen_system(GenParams(num_agents=agents, num_choices=1, num_states=1))
    with pytest.raises(GenParamsError, match=re.escape(message)):
        harness._check_lemma_pairs(ets, 0)


def test_a_negative_lemma_system_count_is_rejected():
    # the command line never passes one (it asks for at least one system);
    # its negative --systems and --instances reach soundness_suite first
    with pytest.raises(GenParamsError, match="must be non-negative"):
        lemma_suite(GenParams(), num_systems=-1)


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


def test_gen_system_is_regular_with_agents_that_sort_out_of_declared_order():
    # "a10" sorts before "a2", so the generated profiles must sort their votes
    p = GenParams(seed=0, num_agents=11, num_states=1, history_depth=1)
    ets = gen_system(p)
    assert check_regular(ets) == []
    report = soundness_suite(p, num_systems=1, num_instances=1)
    assert report.checked == 9
    assert report.violations == [] and report.guard_rejections == []


# sha256 of repr((sorted (w1, votes, w2) triples, sorted valuation)) of
# three-state systems, recorded at fcea951.  With three states the branching
# draws fall on the profiles in the order the generator lists them, so a
# listing in another order ("a10" before "a2") changes the triples and the
# valuation drawn after them.
GENERATED_DIGESTS = {
    11: (7407, "9d3cf4b8871801a18a2ed6d872eb4082bc271ab1dac27336dad28ddfdfb394a9"),
    12: (14824, "a15a94253fc0e27bf41cf8e22f2852191e3c43ce33d3d1034e05bebf5feb1123"),
}


@pytest.mark.parametrize("agents", list(GENERATED_DIGESTS))
def test_generated_systems_keep_their_draws(agents):
    ets = gen_system(GenParams(num_states=3, num_agents=agents, history_depth=0))
    triples = sorted((w1, s.votes, w2) for w1, s, w2 in ets.mechanism)
    valuation = sorted((prop, sorted(where)) for prop, where in ets.valuation.items())
    digest = hashlib.sha256(repr((triples, valuation)).encode()).hexdigest()
    assert (len(triples), digest) == GENERATED_DIGESTS[agents]


def test_gen_formula_depth_and_determinism():
    p = GenParams(seed=3, formula_depth=0)
    f = gen_formula(p, ("p",), ("a",))
    assert isinstance(f, (Atom, Falsum))
    p = GenParams(seed=3, formula_depth=3)
    f1 = gen_formula(p, ("p", "q"), ("a", "b"), salt=7)
    f2 = gen_formula(p, ("p", "q"), ("a", "b"), salt=7)
    assert f1 == f2
    for salt in range(50):
        f = gen_formula(p, ("p", "q"), ("a", "b"), salt=salt)
        assert h_depth(f) <= 3
        assert not uses_empty_coalition(f)


def test_gen_formula_can_include_empty_coalitions():
    p = GenParams(seed=11, formula_depth=3)
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
    result = check_instance(t1, AxiomName.TRUTH, bogus, h)
    assert result.status == "guard_rejected"


@pytest.mark.parametrize("slack", [0, 1])
def test_an_empty_coalition_instance_is_checked_at_its_floor_plus_slack(
        t1, monkeypatch, slack):
    horizons = []

    def recording(ets, h, f, horizon):
        horizons.append(horizon)
        return Verdict(True)

    monkeypatch.setattr(harness, "_evaluate_confirmed", recording)
    h = histories_of_length(t1, 1)[0]
    check_instance(t1, AxiomName.EMPTY_COALITION, parse("K{} p -> H{} p"), h, slack)
    check_instance(t1, AxiomName.TRUTH, parse("K{a} p -> p"), h, slack)
    # floor: anchor length 1 plus one level of know-how nesting
    assert horizons == [2 + slack, None]


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
                result = check_instance(t1, schema, inst, h)
                assert result.status == "ok", (schema, inst, h)
                checked += 1
    assert checked > 200


def test_lemma_suite_clean_on_fixture_and_random_systems(t1):
    p = GenParams(seed=13, history_depth=2)
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
                         [(1, 14918, 41), (2, 18745, 42), (3, 15354, 41)])
def test_lemma_suite_counts_are_pinned(seed, relation_checks, property_checks):
    # counts recorded when the state and profile relations were first checked
    # against keys: the history pairs are those counted since the relation
    # checks were made cheaper, plus 4 coalitions x (16 + 16) key pairs; a
    # faster suite must still check every pair
    report = lemma_suite(GenParams(seed=seed), num_systems=1)
    assert report.failures == []
    assert report.relation_checks == relation_checks
    assert report.property_checks == property_checks


@pytest.mark.parametrize("seed, calls", [(1, 9599), (2, 11829), (3, 9909)])
def test_every_pair_still_reaches_the_relation_under_test(monkeypatch, seed,
                                                          calls):
    # counts recorded before the signatures were shared among coalitions:
    # no pair may be answered from its signature instead of hist_indist
    made = []

    def counted(ets, h1, h2, coalition):
        made.append(None)
        return hist_indist(ets, h1, h2, coalition)

    monkeypatch.setattr(harness, "hist_indist", counted)
    lemma_suite(GenParams(seed=seed), num_systems=1)
    assert len(made) == calls


@pytest.mark.parametrize("n", range(2, 65))
def test_the_pair_draw_replays_sample(n):
    # CPython's sample takes its pool branch up to 21 items and its set
    # branch past them; the replay must draw alike on both, pair and state
    population = [f"h{i}" for i in range(n)]
    for seed in range(100):
        replayed, sampled = random.Random(seed), random.Random(seed)
        assert list(harness._sample_two(replayed, population)) == \
            sampled.sample(population, 2)
        assert replayed.random() == sampled.random()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_self_pairs_still_reach_the_relation_under_test(monkeypatch, seed):
    # a relation that is not reflexive is caught on every level and
    # coalition, so no history is taken as related to itself unasked
    def irreflexive(ets, h1, h2, coalition):
        return h1 is not h2 and hist_indist(ets, h1, h2, coalition)

    monkeypatch.setattr(harness, "hist_indist", irreflexive)
    failures = lemma_suite(GenParams(seed=seed), num_systems=1).failures
    caught = set()
    for failure in failures:
        found = re.fullmatch(r"system 0: (.*) !~ \1 despite equal signatures "
                             r"\(coalition (\{.*\})\)", failure)
        if found:
            caught.add((found[1].count(" ; ") // 2, found[2]))
    assert caught == {(length, coalition) for length in range(4)
                      for coalition in ("{a0}", "{a1}", "{a0,a1}")}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_the_lemma_suite_hashes_no_profile(monkeypatch, seed):
    # each level's last profiles are read off the parents' moves
    calls = []
    method = Profile.__hash__

    def counted(self):
        calls.append(None)
        return method(self)

    monkeypatch.setattr(Profile, "__hash__", counted)
    lemma_suite(GenParams(seed=seed), 1)
    assert calls == []
    # the counter counts
    assert hash(Profile(())) == hash(()) and len(calls) == 1


@pytest.mark.parametrize("agents", [1, 2, 3])
def test_level_tables_index_each_histories_parent_profile_and_head(agents):
    ets = gen_system(GenParams(seed=5, num_agents=agents, num_states=3))
    profiles = list(ets.complete_profiles)
    states = sorted(ets.states)
    columns = {}
    for length in range(4):
        parent, last, head = harness._level_table(ets, length, columns)
        hs = histories_of_length(ets, length)
        assert head == [states.index(h.head) for h in hs]
        if length:
            below = histories_of_length(ets, length - 1)
            assert [below[p] for p in parent] == [
                History(h.states[:-1], h.profiles[:-1]) for h in hs]
            assert last == [profiles.index(h.profiles[-1]) for h in hs]
        else:
            assert parent == last == []


# three agents give seven coalitions, so each agent's signature column is
# shared four ways; counts and the sha256 of the sorted JSON report were
# recorded before the columns were shared, and re-recorded with only
# relation_checks changed when the state and profile relations were first
# checked against keys
@pytest.mark.parametrize("seed, relation_checks, property_checks, digest", [
    (1, 29771, 42, "743c21e8be7a123c6dc97c89b9cf1445db39c4c8d23fba376b0306dba2d2b1ce"),
    (2, 30183, 40, "3292eaae31c25e0226ae4e37040e77b09634c0027d11ad76dd7a865ccc8fcad3"),
    (3, 32472, 41, "6d4723eed344785fc1ffca8c1fe923fb417738e97e4df339be0a3cc841655785"),
])
def test_three_agent_lemma_report_is_pinned(seed, relation_checks,
                                            property_checks, digest):
    report = lemma_suite(GenParams(seed=seed, num_agents=3, history_depth=2),
                         num_systems=1)
    assert report.failures == []
    assert report.relation_checks == relation_checks
    assert report.property_checks == property_checks
    text = json.dumps(report.to_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


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


def _wrong_at_length_1(ets, h1, h2, coalition):
    """``hist_indist``, except that it relates no two distinct histories of
    length 1."""
    if h1.length == h2.length == 1 and h1 != h2:
        return False
    return hist_indist(ets, h1, h2, coalition)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_relation_wrong_only_at_length_1_breaks_decomposition_at_length_2(
        monkeypatch, seed):
    # the decomposition check must ask the relation about the prefixes
    # themselves; equal signatures of the extensions do not vouch for them
    monkeypatch.setattr(harness, "hist_indist", _wrong_at_length_1)
    report = lemma_suite(GenParams(seed=seed), num_systems=1)
    broken = [re.search(r"decomposition fails for (.*) ~ (.*)", f).groups()
              for f in report.failures if "decomposition fails" in f]
    assert broken
    # a history of length n prints as 2n + 1 parts
    assert {h.count(" ; ") for pair in broken for h in pair} == {4}


# sha256 of ``json.dumps(report.to_dict())`` under each planted relation,
# recorded before the lemma suite numbered its histories, and re-recorded
# with only relation_checks changed when the state and profile relations
# were first checked against keys: a faster suite must report the same
# failures, in the same order and the same words
PLANTED_DIGESTS = {
    "profiles": ("dfc2dea1f5adabb32bcfa859b40a090f0f18139005d6436d664a94b686bdba98",
                 "94f565b30fec9a8c632a1c46c61a9dcf2b8710b97aa16d6f6bd7b74288b410a7",
                 "7f88b07d3ec0202d77a4ab4c18f575f6ec9afc0cffb0fabec3fc789d109ec198"),
    "head state": ("23c9b372efcc2d3c620c483ff6d08cc6a71f1ee5f0fd365c752c1dfe15e5e49d",
                   "d8304f5a4d5b44f2e06aa43aef22168fa9ada38bbb32e26ca478a1ea0092dcc3",
                   "b0f990a49ff8424f2b061173b0c412eb74f6bb030e9f55df3a55d87b2e469d14"),
    "length": ("62cd5ae81ea3c2a28e96e0f4e6c9eb78e0eadc438404f731ab8487db630a9964",
               "c08025c989532207b1fdeb841c51a7d4a43a9f867575b0144d721673838b90e0",
               "ab6297d577c7723a2e488f04da5caf5ffa2419f5b160679f9e9aa301294de64d"),
    "wrong at length 1": ("cbf7e5f94c3e591d694454c29c2878adf9a35987fe6e90ba06d1e3a7179c7bfb",
                          "1030ab234668f371a244bcfd05f8ada2fa0ad9704a0131d13f8e08f9742cc08d",
                          "34d6f613e15b476131c72790efa69517fb88614741b3e355d509c53e4d2fd473"),
}


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("planted", list(PLANTED_DIGESTS))
def test_the_failure_report_under_a_planted_relation_is_pinned(monkeypatch, planted,
                                                               seed):
    relation = (_wrong_at_length_1 if planted == "wrong at length 1"
                else _relation_without(planted))
    monkeypatch.setattr(harness, "hist_indist", relation)
    report = lemma_suite(GenParams(seed=seed), 1)
    assert report.failures
    text = json.dumps(report.to_dict())
    assert hashlib.sha256(text.encode()).hexdigest() == PLANTED_DIGESTS[planted][seed - 1]


# each planted relation is still an equivalence, but a finer one than its
# key, so the key check reports it too; the decomposition counts were
# recorded before the lemma suite numbered its histories
@pytest.mark.parametrize("name, kind, planted, counts", [
    ("profile_agrees", "profile",
     lambda orig: lambda s1, s2, c: orig(s1, s2, c) and s1 == s2, (1891, 2492, 2305)),
    ("state_indist", "state",
     lambda orig: lambda ets, w1, w2, c: orig(ets, w1, w2, c) and w1 == w2,
     (2175, 1177, 1304)),
])
def test_the_decomposition_asks_the_relations_under_test(monkeypatch, name, kind,
                                                         planted, counts):
    monkeypatch.setattr(harness, name, planted(getattr(harness, name)))
    for seed, count in zip((1, 2, 3), counts):
        failures = lemma_suite(GenParams(seed=seed), num_systems=1).failures
        keyed = [f for f in failures if f.startswith(f"{kind} relation {{")]
        assert keyed and all(" !~ " in f and "despite equal" in f for f in keyed)
        assert len(failures) - len(keyed) == count
        assert all("decomposition fails for" in failure
                   for failure in failures if failure not in keyed)


def _dropping_the_largest_member(relation):
    """``relation`` for a coalition of two or more without its largest
    member: still an equivalence, but a coarser one."""

    def related(*args):
        *items, coalition = args
        if len(coalition) > 1:
            coalition = coalition - {max(coalition)}
        return relation(*items, coalition)

    return related


# an equivalence that is not the intended one: only the key check can tell;
# on seed 3 the dropped member's blocks coincide with the others'
@pytest.mark.parametrize("name, kind, key, counts", [
    ("state_indist", "state", "blocks", (6, 8, 0)),
    ("profile_agrees", "profile", "votes", (56, 56, 56)),
])
def test_the_key_check_catches_a_relation_that_ignores_a_member(monkeypatch, name,
                                                                kind, key, counts):
    monkeypatch.setattr(harness, name, _dropping_the_largest_member(getattr(harness, name)))
    for seed, count in zip((1, 2, 3), counts):
        params = GenParams(seed=seed, num_agents=3, history_depth=2)
        failures = lemma_suite(params, num_systems=1).failures
        assert len(failures) == count
        assert all(re.fullmatch(rf"{kind} relation \{{a\d,a\d(,a\d)?\}}: \S+ ~ \S+ "
                                rf"across different {key}", f)
                   for f in failures), failures


@pytest.mark.parametrize("agents", [1, 2, 3])
def test_signature_columns_number_the_from_scratch_signatures(agents):
    # equal ints iff equal (block ids, votes) sequences, numbered in the
    # order they first appear, so every coalition gets the same buckets in
    # the same order as from the from-scratch signatures
    ets = gen_system(GenParams(seed=5, num_agents=agents, num_states=3))
    columns = {}
    for length in range(5):
        hs = histories_of_length(ets, length)
        scratch = {}
        for agent in sorted(ets.agents):
            blocks = {w: i for i, block in enumerate(ets.indist[agent]) for w in block}
            scratch[agent] = [(tuple(blocks[w] for w in h.states),
                               tuple(s[agent] for s in h.profiles)) for h in hs]
            column = harness._signature_column(ets, agent, length, columns)
            assert len(column) == len(hs)
            # one int per sequence pair and one sequence pair per int
            pairs = set(zip(column, scratch[agent]))
            assert len(set(column)) == len(set(scratch[agent])) == len(pairs)
            first_seen = list(dict.fromkeys(column))
            assert first_seen == list(range(len(first_seen)))
        for coalition in _coalitions(ets.agents, include_empty=False):
            members = sorted(coalition)
            numbered, unfolded = {}, {}
            for i, (ints, sigs) in enumerate(zip(
                    zip(*[columns[a, length] for a in members]),
                    zip(*[scratch[a] for a in members]))):
                numbered.setdefault(ints, []).append(i)
                unfolded.setdefault(sigs, []).append(i)
            assert list(numbered.values()) == list(unfolded.values())


# sha256 of ``knowhow fuzz --json`` stdout, recorded before the lemma
# suite's decomposition checks were decided once per distinct pair, and
# re-recorded with only relation_checks changed when the state and profile
# relations were first checked against keys: a faster suite must print the
# same report
FUZZ_DIGESTS = [
    (["--systems", "1", "--instances", "5", "--seed", "1"],
     "627f7e91189867809fff3c796c23abd8e89ddaf0bc5585728883cd0a3c16dab0"),
    (["--systems", "1", "--instances", "5", "--seed", "2"],
     "225dcd4c2866c4b1778722028845d87a9bfdbf56f392a880054556e873d498b3"),
    (["--systems", "1", "--instances", "5", "--seed", "3"],
     "1eaa4410f443002bb13c47f5644037364ec500054aaa8f6a2616ced5a9b1d21d"),
    (["--systems", "1", "--instances", "5", "--seed", "4"],
     "11cbddaaed62fe6fb3cd5a3e38a4d56d720b4cbc3ea5dea084914ce0caf38724"),
    (["--systems", "1", "--instances", "5", "--seed", "5"],
     "8d7e8809d3ab51806b06375f7b3ad183031b2facc82596c4c162a4e475125473"),
    (["--systems", "1", "--instances", "5", "--seed", "6"],
     "f9074f8d483f6732ed3d1d3779aae0c00249daa915bee167b03a9ea35fceec26"),
    (["--systems", "1", "--instances", "5", "--seed", "7"],
     "b70c3c01fd73b397a6137c028c18b414caada53d6e784cd3b1487a1d97fd5dc9"),
    (["--systems", "1", "--instances", "5", "--seed", "8"],
     "77c293ee23d016cd8b2b459e64889ca6495f2cc6285712c3c51cba96dc14ba3e"),
    (["--systems", "1", "--instances", "5", "--seed", "9"],
     "e0ab8a5c2aefbd1cf806bebf89881eeef5035cfdf5fd0d8a6795aa801ba3f441"),
    (["--systems", "1", "--instances", "5", "--seed", "10"],
     "bcb11ecdc4e247055c1d853c3299db57ee9ef32d87ba546530bef90ba002cf58"),
    (["--seed", "0"],
     "f50a40c84051b3813717bd588bc02a442b23f2a053db3b96bf2358d9867b8246"),
    (["--seed", "1"],
     "25ea2726c09fa04e346deb627dd8bf3ee1c51e96df35bcb2d8edbdadf6de1d9a"),
    (["--seed", "2"],
     "bbae01cb23a052af0be327ecfc6338d0bbbf32d02e5e9b47a2be5737ae5c3014"),
    (["--seed", "3"],
     "6877f8b57bb406e96838b089eda14364f308825e676bc21786973b8f99e50bc2"),
    # other shapes, recorded before the lemma suite numbered its histories
    (["--agents", "3", "--depth", "2", "--systems", "2", "--instances", "1", "--seed", "1"],
     "4f5fad0b6d9f27809682d00b9dd5072019e23cc7e8411bdfeb31a540bef09ca8"),
    (["--agents", "1", "--systems", "2", "--instances", "1", "--seed", "1"],
     "52cd426a08d44e14c1dccbe0d3462c4daff52adabac48b9f17aa831a0d5b43e6"),
    (["--choices", "3", "--systems", "2", "--instances", "1", "--seed", "1"],
     "9274f56d8bc5bc9d18048b905b8842255787055b6e5577f401a7360cb7b02cbc"),
    (["--depth", "0", "--systems", "2", "--instances", "1", "--seed", "1"],
     "46add9e2cfe2b931965084b87b321f1245ca3bd7f674f3446235988874a07e39"),
    (["--depth", "4", "--states", "3", "--systems", "2", "--instances", "1", "--seed", "1"],
     "dcdc4058f9b1edd9619611718af94230667745198a1dff0744101a4208c10823"),
]


def _fuzz_id(argv):
    """``small-seed1`` or ``defaults-seed1``, with any shape flags between."""
    shape = "".join(f"{flag[2:]}{value}-"
                    for flag, value in zip(argv[:-6:2], argv[1:-6:2]))
    return ("small-" if "--systems" in argv else "defaults-") + shape + f"seed{argv[-1]}"


@pytest.mark.parametrize("argv, digest", FUZZ_DIGESTS,
                         ids=[_fuzz_id(argv) for argv, _ in FUZZ_DIGESTS])
def test_fuzz_json_output_is_pinned(capsys, argv, digest):
    code = main(["fuzz", "--json", *argv])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, digest)


def test_empty_coalition_relates_histories_of_different_lengths(t1):
    h0 = histories_of_length(t1, 0)[0]
    h2 = histories_of_length(t1, 2)[0]
    assert hist_indist(t1, h0, h2, frozenset())


def test_the_key_check_detects_injected_violations(monkeypatch):
    # four states in two blocks by parity, so the key is the parity
    states = ["s0", "s1", "s2", "s3"]
    ets = EpistemicTransitionSystem(
        ["a"], states, ["0"], {"a": [["s0", "s2"], ["s1", "s3"]]},
        [(w, Profile.of({"a": "0"}), w) for w in states], {})

    def failures(relation):
        monkeypatch.setattr(harness, "state_indist",
                            lambda ets, w1, w2, c: relation(int(w1[1:]), int(w2[1:])))
        report = LemmaReport(GenParams())
        harness._check_relation_keys(ets, frozenset({"a"}), report, {})
        assert report.relation_checks == 16 + 1
        return report.failures

    # same parity, except the pair (0, 2) is severed in one direction
    def broken(x, y):
        if (x, y) == (0, 2):
            return False
        return x % 2 == y % 2

    assert failures(broken) == ["state relation {a}: s0 !~ s2 despite equal blocks"]

    def not_reflexive(x, y):
        return x != y

    problems = failures(not_reflexive)
    assert [p for p in problems if "reflexive" in p] == [
        f"state relation {{a}}: not reflexive at {w}" for w in states]
    assert len(problems) == 4 + 8


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
            inst = instantiate_axiom(schema, rng, ("p",), agents, depth=1)
            for h in pool[:10]:
                horizon = (h.length + h_depth(inst)
                           if uses_empty_coalition(inst) else None)
                assert evaluate(t2, h, inst, horizon).value, (schema, inst, h)


# a fresh interpreter per str hash salt: the instances drawn and the checker
# work they cost must not depend on the order a frozenset of agent names
# iterates in
SAME_WORK = """
import hashlib, random
from knowhow import checker
from knowhow.harness import GenParams, instantiate_axiom, lemma_suite, soundness_suite
from knowhow.proofkit import AxiomName

rng = random.Random(0)
text = "\\n".join(str(instantiate_axiom(schema, rng, ("p", "q"),
                                         ("a0", "a1", "a2", "a3"), depth=1))
                  for _ in range(20) for schema in AxiomName)
steps = [0]
step = checker._Types.step

def counting(self, *args):
    steps[0] += 1
    return step(self, *args)

checker._Types.step = counting
params = GenParams(seed=100, num_agents=3)
soundness_suite(params, num_systems=1, num_instances=3)
lemma_suite(params, num_systems=1)
print(hashlib.sha256(text.encode()).hexdigest(), steps[0])
"""


def test_the_same_work_under_every_string_hash_salt():
    src = str(Path(harness.__file__).resolve().parents[1])
    runs = {subprocess.run([sys.executable, "-c", SAME_WORK], capture_output=True,
                           text=True, check=True, timeout=120,
                           env={**os.environ, "PYTHONPATH": src,
                                "PYTHONHASHSEED": salt}).stdout
            for salt in ("1", "2", "3")}
    assert len(runs) == 1, runs


SAME_FAILURES = """
from knowhow import harness
from knowhow.harness import GenParams, lemma_suite

harness.state_indist = lambda ets, w1, w2, coalition: False
report = lemma_suite(GenParams(seed=1, history_depth=1), num_systems=1)
print("\\n".join(report.failures))
"""


def test_failure_lines_print_coalitions_the_same_under_every_string_hash_salt():
    src = str(Path(harness.__file__).resolve().parents[1])
    runs = {subprocess.run([sys.executable, "-c", SAME_FAILURES], capture_output=True,
                           text=True, check=True, timeout=120,
                           env={**os.environ, "PYTHONPATH": src,
                                "PYTHONHASHSEED": salt}).stdout
            for salt in ("1", "2", "3")}
    assert len(runs) == 1, runs
    lines = runs.pop().splitlines()
    assert any(line.startswith("state relation {a0,a1}: not reflexive")
               for line in lines)
    assert any(line.startswith("state relation {}: not reflexive") for line in lines)


def test_a_system_with_too_many_histories_is_refused_before_any_is_listed(
        monkeypatch):
    def unlisted(ets, length):
        raise AssertionError("listed a level")

    monkeypatch.setattr(harness, "histories_of_length", unlisted)
    params = GenParams(seed=0, history_depth=10)
    for suite in (soundness_suite, lemma_suite):
        with pytest.raises(GenParamsError,
                           match=f"more than {harness.MAX_HISTORIES} histories "
                                 "of length at most 10"):
            suite(params, num_systems=1)


def test_the_lemma_suite_refuses_past_its_history_and_coalition_pairs(monkeypatch):
    # 31,989 histories of length <= 3 times 15 nonempty coalitions, plus 16
    # coalitions times (4^2 state pairs + 16^2 profile pairs); the cap is
    # decided before any level is listed and any relation is asked
    def past_the_cap(*args):
        raise AssertionError("ran past the cap")

    monkeypatch.setattr(harness, "histories_of_length", past_the_cap)
    monkeypatch.setattr(harness, "state_indist", past_the_cap)
    params = GenParams(seed=0, num_agents=4)
    pairs = 31989 * 15 + 16 * (4 ** 2 + 16 ** 2)
    monkeypatch.setattr(harness, "MAX_LEMMA_PAIRS", pairs - 1)
    with pytest.raises(GenParamsError, match=re.escape(
            f"makes {pairs} pairs for the lemma suite, more than {pairs - 1}: 31989 "
            "histories of length at most 3 times 15 nonempty coalitions, plus 16 "
            "coalitions times (4 states squared + 16 complete profiles squared)")):
        lemma_suite(params, num_systems=1)
    monkeypatch.setattr(harness, "MAX_LEMMA_PAIRS", pairs)
    with pytest.raises(AssertionError, match="ran past the cap"):
        lemma_suite(params, num_systems=1)


@pytest.mark.parametrize("params", [
    GenParams(), GenParams(seed=1, num_agents=3, num_states=6),
    GenParams(seed=2, num_agents=1, num_choices=3, num_states=9),
    GenParams(seed=3, num_agents=4, num_states=1, history_depth=2),
    GenParams(seed=4, history_depth=0)])
def test_the_lemma_pair_count_is_that_of_the_calls(monkeypatch, params):
    # the suite asks each state and profile relation once per pair and
    # coalition, at depth 0 too, and checks every level once per nonempty
    # coalition
    ets = gen_system(params)
    calls = 0

    def counting(relation):
        def related(*args):
            nonlocal calls
            calls += 1
            return relation(*args)
        return related

    monkeypatch.setattr(harness, "state_indist", counting(state_indist))
    monkeypatch.setattr(harness, "profile_agrees", counting(profile_agrees))
    assert lemma_suite(params, num_systems=0, extra_systems=(ets,)).failures == []
    histories = sum(len(histories_of_length(ets, n))
                    for n in range(params.history_depth + 1))
    pairs = calls + histories * ((1 << len(ets.agents)) - 1)
    monkeypatch.setattr(harness, "MAX_LEMMA_PAIRS", pairs)
    harness._check_lemma_pairs(ets, params.history_depth)
    monkeypatch.setattr(harness, "MAX_LEMMA_PAIRS", pairs - 1)
    with pytest.raises(GenParamsError, match=f"makes {pairs} pairs for the lemma suite"):
        harness._check_lemma_pairs(ets, params.history_depth)


@pytest.mark.parametrize("depth", [0, 1, 2, 3])
def test_the_history_count_is_that_of_the_listed_levels(monkeypatch, depth):
    ets = gen_system(GenParams(seed=4))
    listed = sum(len(histories_of_length(ets, n)) for n in range(depth + 1))
    monkeypatch.setattr(harness, "MAX_HISTORIES", listed)
    harness._check_history_count(ets, depth)
    monkeypatch.setattr(harness, "MAX_HISTORIES", listed - 1)
    with pytest.raises(GenParamsError):
        harness._check_history_count(ets, depth)
