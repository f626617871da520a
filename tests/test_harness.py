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


def test_gen_system_is_regular_with_agents_that_sort_out_of_declared_order():
    # "a10" sorts before "a2", so the generated profiles must sort their votes
    p = GenParams(seed=0, num_agents=11, num_states=1, history_depth=1)
    ets = gen_system(p)
    assert check_regular(ets) == []
    report = soundness_suite(p, num_systems=1, num_instances=1)
    assert report.checked == 9
    assert report.violations == [] and report.guard_rejections == []


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
                         [(1, 15700, 41), (2, 19541, 42), (3, 16150, 41)])
def test_lemma_suite_counts_are_pinned(seed, relation_checks, property_checks):
    # counts recorded before the relation checks were made cheaper: a faster
    # suite must still check every pair it checked then
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


# three agents give seven coalitions, so each agent's signature column is
# shared four ways; counts and the sha256 of the sorted JSON report were
# recorded before the columns were shared
@pytest.mark.parametrize("seed, relation_checks, property_checks, digest", [
    (1, 34281, 42, "9a8ad00d07e44d33a7c55ac9e4598c91456f5a5f4d94646048a79fe0bbe65388"),
    (2, 34701, 40, "69402326321d87f0f65916fdf8cc1590fdf9d6317557f29d67019e802d2cc923"),
    (3, 37044, 41, "4e7b40a081e0e81cb61632f19a6c775568b14c1b5ae89e3993d04034260f1f27"),
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
            _check_history_relation(ets, coalition, n, rng, report, "signature", {})
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


# sha256 of ``json.dumps(report.to_dict())`` under each planted relation,
# recorded before the lemma suite numbered its histories: a faster suite
# must report the same failures, in the same order and the same words
PLANTED_DIGESTS = {
    "profiles": ("09be2de621018fef0da120d51d2b496897602cada79772472795b1d7831135fb",
                 "ecb4132d73c541e4fbecdf282802650f3536f0703747e96702a4a493a28bf313",
                 "cffd67c9cb3e54da90d99e64e5fcee1b83b217d33d041fb06ba2dfae8a30f808"),
    "head state": ("c2e7ca0bf61ef5340cdfc355a867b1b2ef4a60d053b14bfaee91e1505ad2d641",
                   "821c7c7fa6a020b3536466e00a725f0199b603336131a28fb0cf3e5feacdf3d0",
                   "8f872510960d09a402cb1afc5850a537c5374d920de9d65b14595d69accdb403"),
    "length": ("288d8efc3464e14b202942792d2866ed74ede6cf22c1cfc9fb37cead12f7e5dc",
               "d5bf29737fb5c0eba19e468538fa6a11093c30469fa8d732aa74f3ad552221cf",
               "a02c1ce15d28d09a2713fe1cc1c443de321ac10831030330f9481bc773c3fc2d"),
    "wrong at length 1": ("0be0d8eb1e27b615883a9532076780dde5b0580f800bec15782fac72737d382f",
                          "31482b7a909675a6a44fbbe05454e2247c85818ea6cab55f684743deb4b7ed09",
                          "793467c02e7868768317e44dad082b3bf9ae6456ed4b9dc69f2d15115bc71495"),
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


# each planted relation is still an equivalence, so only the decomposition
# check can catch it; the counts were recorded before the lemma suite
# numbered its histories
@pytest.mark.parametrize("name, planted, counts", [
    ("profile_agrees", lambda orig: lambda s1, s2, c: orig(s1, s2, c) and s1 == s2,
     (1891, 2492, 2305)),
    ("state_indist", lambda orig: lambda ets, w1, w2, c: orig(ets, w1, w2, c) and w1 == w2,
     (2175, 1177, 1304)),
])
def test_the_decomposition_asks_the_relations_under_test(monkeypatch, name, planted,
                                                         counts):
    monkeypatch.setattr(harness, name, planted(getattr(harness, name)))
    for seed, count in zip((1, 2, 3), counts):
        failures = lemma_suite(GenParams(seed=seed), num_systems=1).failures
        assert len(failures) == count
        assert all("decomposition fails for" in failure for failure in failures)


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
    # other shapes, recorded before the lemma suite numbered its histories
    (["--agents", "3", "--depth", "2", "--systems", "2", "--instances", "1", "--seed", "1"],
     "4e64caddc62f2261b3e16d50cd3faa22a32eff9c432875454bc91e6120f789fd"),
    (["--agents", "1", "--systems", "2", "--instances", "1", "--seed", "1"],
     "e43da9ae279a8a4e66d10bc9ec6407f105223356ac52de1b17f713ea1e8233d5"),
    (["--choices", "3", "--systems", "2", "--instances", "1", "--seed", "1"],
     "4409dc88ed74ed08bc5da30c4c23eecaff62912ca797de38b16f8e95879978b6"),
    (["--depth", "0", "--systems", "2", "--instances", "1", "--seed", "1"],
     "eb9a555301bb66ade856a4a89a24bfee6f0b69b8e5cd50abc474dd1ab6cdbd73"),
    (["--depth", "4", "--states", "3", "--systems", "2", "--instances", "1", "--seed", "1"],
     "c0144afe980738198c0d7bf5d3e7c1eaed5a9852f4592918215f6b85cc9f3fe8"),
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
    # 31,989 histories of length <= 3 times 15 nonempty coalitions; the cap
    # is decided before any level is listed
    def unlisted(ets, length):
        raise AssertionError("listed a level")

    monkeypatch.setattr(harness, "histories_of_length", unlisted)
    params = GenParams(seed=0, num_agents=4)
    monkeypatch.setattr(harness, "MAX_LEMMA_PAIRS", 31989 * 15 - 1)
    with pytest.raises(GenParamsError, match="31989 histories of length at most 3 "
                                             "and 15 nonempty coalitions"):
        lemma_suite(params, num_systems=1)
    monkeypatch.setattr(harness, "MAX_LEMMA_PAIRS", 31989 * 15)
    with pytest.raises(AssertionError, match="listed a level"):
        lemma_suite(params, num_systems=1)


@pytest.mark.parametrize("params", [
    GenParams(), GenParams(seed=1, num_agents=3, num_states=6),
    GenParams(seed=2, num_agents=1, num_choices=3, num_states=9),
    GenParams(seed=3, num_agents=4, num_states=1)])
def test_the_equivalence_count_is_that_of_the_calls(monkeypatch, params):
    ets = gen_system(params)
    calls = 0

    def counting(relation, c):
        def related(x, y):
            nonlocal calls
            calls += 1
            return relation(x, y, c)
        return related

    for c in _coalitions(ets.agents, include_empty=True):
        check_equivalence(sorted(ets.states),
                          counting(lambda w1, w2, c: state_indist(ets, w1, w2, c), c))
        check_equivalence(ets.complete_profiles, counting(profile_agrees, c))
    monkeypatch.setattr(harness, "MAX_EQUIVALENCE_PAIRS", calls)
    harness._check_equivalence_pairs(ets)
    monkeypatch.setattr(harness, "MAX_EQUIVALENCE_PAIRS", calls - 1)
    with pytest.raises(GenParamsError, match="pairs for the lemma suite"):
        harness._check_equivalence_pairs(ets)


@pytest.mark.parametrize("depth", [0, 1, 2, 3])
def test_the_history_count_is_that_of_the_listed_levels(monkeypatch, depth):
    ets = gen_system(GenParams(seed=4))
    listed = sum(len(histories_of_length(ets, n)) for n in range(depth + 1))
    monkeypatch.setattr(harness, "MAX_HISTORIES", listed)
    harness._check_history_count(ets, depth)
    monkeypatch.setattr(harness, "MAX_HISTORIES", listed - 1)
    with pytest.raises(GenParamsError):
        harness._check_history_count(ets, depth)
