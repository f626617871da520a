import hashlib
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


# sha256 of ``knowhow fuzz --json`` stdout, recorded before the lemma
# suite's decomposition checks were decided once per distinct pair: a faster
# suite must print the same report
FUZZ_DIGESTS = [
    (["--systems", "1", "--instances", "5", "--seed", "1"],
     "3bf71f23cfae33698ca8ebf498f7009a6f28614f8da51444029ef5cc5b677bd2"),
    (["--systems", "1", "--instances", "5", "--seed", "2"],
     "a17b7e48b8d6089551921bbdf5dd0c0d504c6eb282412c45f654109bc84d803a"),
    (["--systems", "1", "--instances", "5", "--seed", "3"],
     "2c47a4be2aa6081633e08ac5a2b2f5d9f5884f95eb633c92f9cac07a20a0c57c"),
    (["--systems", "1", "--instances", "5", "--seed", "4"],
     "83fc730d43075e9495d55f18c7a52d0d1b5559fd00d802277649c89d44785e9f"),
    (["--systems", "1", "--instances", "5", "--seed", "5"],
     "2acaef872a383684e13d854d00a6ffeafc65dcd2273ef899107cf70432fc559e"),
    (["--systems", "1", "--instances", "5", "--seed", "6"],
     "4515edd955fe4a3ea3ccdb86c7d5c261564ddf5d7943291a1d1a42053f90a196"),
    (["--systems", "1", "--instances", "5", "--seed", "7"],
     "24668d59ef6268cb2f4d6b9f7829ba2fbfdfc10e82c148e59683b4eeb7b6bed6"),
    (["--systems", "1", "--instances", "5", "--seed", "8"],
     "2c86518377e7d03c7296c58f4baee5fa98f721760dd7d20900e974bd00833c8a"),
    (["--systems", "1", "--instances", "5", "--seed", "9"],
     "67d2323568a81370ab55b1b4cecfe80312de1f7238db73b1bc615b5a74bac227"),
    (["--systems", "1", "--instances", "5", "--seed", "10"],
     "a08f70eb68ee01558099364d00a739ee8da3cd0f66dc3ed69792cde8d756b746"),
    (["--seed", "0"],
     "ce4cf48fa4907ac57fa211c0026b269975ee856427da33d1242b82f3a8a87243"),
    (["--seed", "1"],
     "49e9bdb7a37b94d014cc38f807ee7608206bfef0e6c9fc21d04dcead5f137a56"),
    (["--seed", "2"],
     "2bd0e42364585998d115ac2554731813645fe69fddb37662c6f1e0f9322011aa"),
    (["--seed", "3"],
     "f557b58f1cbbec7e892a37596baa125c1e53c00e81173b248f8e3ec9828b8294"),
]


@pytest.mark.parametrize("argv, digest", FUZZ_DIGESTS,
                         ids=[("small-" if "--systems" in argv else "defaults-")
                              + f"seed{argv[-1]}" for argv, _ in FUZZ_DIGESTS])
def test_fuzz_json_output_is_pinned(capsys, argv, digest):
    code = main(["fuzz", "--json", *argv])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, digest)


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
