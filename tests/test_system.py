import importlib
import itertools
import random
import re
from pathlib import Path

import pytest

from knowhow.checker import RegularityError, evaluate
from knowhow.fixtures import fixture_text
from knowhow.formula import parse
from knowhow.harness import GenParams, gen_system
from knowhow.system import (
    MAX_PROFILES, EpistemicTransitionSystem, History, InvalidHistoryError,
    ModelFormatError, Profile, check_profile_count, check_regular, extensions,
    hist_indist, histories_of_length, load_system, parse_history,
    profile_agrees, state_indist,
)

A = frozenset({"a"})
AB = frozenset({"a", "b"})


def h(ets, literal):
    return parse_history(ets, literal)


def test_profile_count_is_capped_without_computing_huge_powers():
    check_profile_count(12, 2)
    check_profile_count(1, MAX_PROFILES)
    check_profile_count(10**9, 1)
    for agents, choices in ((13, 2), (1, MAX_PROFILES + 1), (10**9, 2)):
        with pytest.raises(ModelFormatError, match=f"more than {MAX_PROFILES}"):
            check_profile_count(agents, choices)
    with pytest.raises(ModelFormatError, match=f"more than {MAX_PROFILES}"):
        EpistemicTransitionSystem([f"a{i}" for i in range(40)], ["w0"], ["0", "1"],
                                  {}, [], {})


def test_t1_loads_with_expected_shape(t1):
    assert len(t1.states) == 6
    assert t1.agents == {"a"}
    assert t1.choices == {"0", "1"}


def test_t2_loads_with_expected_shape(t2):
    assert len(t2.states) == 5
    assert t2.agents == {"a", "b", "c"}


def test_overlapping_indist_blocks_rejected():
    text = """
agents: a
choices: 0
states: w0 w1 w2
indist a: w0 w1 | w1 w2
trans w0 [] w1
trans w1 [] w2
trans w2 [] w2
"""
    with pytest.raises(ModelFormatError) as err:
        load_system(text)
    assert str(err.value) == "line 5: state 'w1' appears in two indist blocks for agent 'a'"
    # a system built in code is checked by its constructor, without a line
    with pytest.raises(ModelFormatError) as err:
        EpistemicTransitionSystem(["a"], ["w0", "w1", "w2"], ["0"],
                                  {"a": [["w0", "w1"], ["w2", "w1"]]}, [], {})
    assert str(err.value) == "state 'w1' appears in two indist blocks for agent 'a'"
    assert err.value.line_no is None


@pytest.mark.parametrize("agents, states, choices, indist, mechanism, valuation, message", [
    ([], ["w0"], ["0"], {}, [], {}, "system needs at least one agent"),
    (["a"], [], ["0"], {}, [], {}, "system needs at least one state"),
    (["a"], ["w0"], [], {}, [], {}, "system needs at least one choice"),
    (["a"], ["w0"], ["0"], {"a": [["w0", "zz"]]}, [], {},
     "indist block for 'a' names undeclared state 'zz'"),
    (["a"], ["w0"], ["0"], {}, [("w0", Profile.of({"a": "0"}), "zz")], {},
     "transition names undeclared state 'zz'"),
    (["a"], ["w0"], ["0"], {}, [], {"p": ["w0", "zz"]},
     "valuation of 'p' names undeclared state 'zz'"),
    (["a"], ["w0", "w1"], ["0"], {"a": [[]]}, [], {}, "empty indist block"),
    (["a"], ["w0", "w1"], ["0"], {"zz": [["w0", "w1"]]}, [], {},
     "undeclared agent 'zz'"),
    (["true"], ["w0"], ["0"], {}, [], {}, "agent name 'true' is reserved"),
    (["a"], ["w0"], ["0"], {}, [], {"false": ["w0"]},
     "proposition name 'false' is reserved"),
], ids=["no-agent", "no-state", "no-choice", "indist-state", "transition-state",
        "valuation-state", "empty-block", "indist-agent", "reserved-agent",
        "reserved-proposition"])
def test_a_system_built_in_code_is_checked_by_its_constructor(
        agents, states, choices, indist, mechanism, valuation, message):
    with pytest.raises(ModelFormatError) as err:
        EpistemicTransitionSystem(agents, states, choices, indist, mechanism, valuation)
    assert (str(err.value), err.value.line_no) == (message, None)


def test_load_rejects_undeclared_names():
    base = "agents: a\nchoices: 0\nstates: w0\ntrans w0 [] w0\n"
    with pytest.raises(ModelFormatError):
        load_system(base + "valuation p: w9\n")
    with pytest.raises(ModelFormatError):
        load_system(base + "indist b: w0\n")
    with pytest.raises(ModelFormatError):
        load_system(base.replace("trans w0 [] w0", "trans w0 [a=7] w0"))


def test_load_rejects_missing_and_duplicate_sections():
    with pytest.raises(ModelFormatError):
        load_system("agents: a\nchoices: 0\n")  # no states
    with pytest.raises(ModelFormatError):
        load_system("agents: a\nagents: b\nchoices: 0\nstates: w0\ntrans w0 [] w0\n")


def test_load_accepts_nonregular_and_evaluate_refuses_it():
    # regularity is a precondition of evaluation, not of reading a model
    text = "agents: a\nchoices: 0 1\nstates: w0\ntrans w0 [a=0] w0\n"
    ets = load_system(text)
    assert check_regular(ets) == [("w0", Profile.of({"a": "1"}))]
    with pytest.raises(RegularityError) as err:
        evaluate(ets, parse_history(ets, "w0"), parse("p"))
    assert str(err.value) == (
        "system is not regular: no successor for state 'w0' under profile a=1 "
        "(1 violations)")


def test_t1_is_regular_by_exhaustive_scan(t1):
    # oracle: scan all state/profile pairs directly against the triple set
    for w in t1.states:
        for profile in t1.complete_profiles:
            assert any((w, profile, w2) in t1.mechanism for w2 in t1.states)
    assert check_regular(t1) == []
    assert len(t1.states) * len(t1.complete_profiles) == 12


def test_t2_is_regular_by_exhaustive_scan(t2):
    for w in t2.states:
        for profile in t2.complete_profiles:
            assert any((w, profile, w2) in t2.mechanism for w2 in t2.states)
    assert check_regular(t2) == []
    assert len(t2.states) * len(t2.complete_profiles) == 40


def test_removing_sink_loops_breaks_regularity():
    mutilated = "\n".join(
        line for line in fixture_text("t1").splitlines()
        if not line.startswith("trans w2  [] w2"))
    ets = load_system(mutilated)
    violations = check_regular(ets)
    assert violations == [
        ("w2", Profile.of({"a": "0"})),
        ("w2", Profile.of({"a": "1"})),
    ]


def test_state_indist_examples(t1, t2):
    assert state_indist(t1, "w0", "w0'", A)
    assert not state_indist(t2, "w0", "w1", AB)
    assert state_indist(t2, "w0", "w1", frozenset())  # empty conjunction
    with pytest.raises(KeyError):
        state_indist(t1, "nope", "w0", A)
    with pytest.raises(KeyError):
        state_indist(t1, "w0", "nope", A)
    with pytest.raises(KeyError):
        state_indist(t1, "w0", "w1", frozenset({"z"}))


def test_profile_agrees_examples():
    s1 = Profile.of({"a": "0", "b": "1"})
    s2 = Profile.of({"a": "0", "b": "0"})
    assert profile_agrees(s1, s2, A)
    assert not profile_agrees(s1, s2, AB)
    assert profile_agrees(s1, s2, frozenset())
    with pytest.raises(KeyError):
        profile_agrees(s1, s2, frozenset({"c"}))


def test_hist_indist_mirrored_step(t1):
    assert hist_indist(t1, h(t1, "w1 ; a=0 ; w2"), h(t1, "w1' ; a=0 ; w2'"), A)


def test_hist_indist_full_run_has_exactly_one_twin(t1):
    run = h(t1, "w0 ; a=1 ; w1 ; a=0 ; w2")
    twin = h(t1, "w0' ; a=1 ; w1 ; a=0 ; w2")
    assert hist_indist(t1, run, twin, A)
    level = histories_of_length(t1, run.length)
    assert {g for g in level if hist_indist(t1, run, g, A)} == {run, twin}


def test_hist_indist_needs_equal_lengths_for_nonempty_coalitions(t1):
    h1 = h(t1, "w1 ; a=0 ; w2")
    h3 = h(t1, "w0 ; a=1 ; w1 ; a=0 ; w2 ; a=0 ; w2")
    assert not hist_indist(t1, h1, h3, A)
    assert hist_indist(t1, h1, h3, frozenset())  # empty coalition ignores length


def _vote(profile, agent):
    # the choice paired with the agent in the sorted vote pairs
    for a, choice in profile.votes:
        if a == agent:
            return choice
    raise KeyError(agent)


def _agrees_by_definition(s1, s2, coalition):
    return all(_vote(s1, a) == _vote(s2, a) for a in coalition)


def _indist_by_definition(ets, h1, h2, coalition):
    # position by position: same length, every pair of states in one block
    # of every member, every pair of profiles agreeing on every member
    if not coalition:
        return True
    if len(h1.profiles) != len(h2.profiles):
        return False
    for w1, w2 in zip(h1.states, h2.states):
        for a in coalition:
            if not any(w1 in block and w2 in block for block in ets.indist[a]):
                return False
    return all(_agrees_by_definition(s1, s2, coalition)
               for s1, s2 in zip(h1.profiles, h2.profiles))


@pytest.mark.parametrize("params", [
    GenParams(seed=1, num_states=3),
    GenParams(seed=2, num_states=3, branching=1.5),
    GenParams(seed=3, num_states=2, num_agents=1, num_choices=3),
    GenParams(seed=4),
    GenParams(seed=5, num_states=2, num_agents=3),
], ids=["s3-a2", "s3-a2-b1.5", "s2-a1-c3", "s4-a2", "s2-a3"])
def test_relations_keep_their_pairwise_definitions(params):
    ets = gen_system(params)
    coalitions = [frozenset(c) for n in range(len(ets.agents) + 1)
                  for c in itertools.combinations(sorted(ets.agents), n)]
    profiles = ets.complete_profiles
    for s in profiles:
        for a in ets.agents:
            assert s[a] == _vote(s, a)
    for c in coalitions:
        for s1, s2 in itertools.product(profiles, repeat=2):
            assert profile_agrees(s1, s2, c) == _agrees_by_definition(s1, s2, c)
    hs = [g for n in range(3) for g in histories_of_length(ets, n)]
    related = 0
    for c in coalitions:
        for h1, h2 in itertools.product(hs, repeat=2):
            expected = _indist_by_definition(ets, h1, h2, c)
            assert hist_indist(ets, h1, h2, c) == expected, (h1, h2, c)
            related += expected and h1 != h2 and h1.length == h2.length
    assert related > 0  # some distinct pairs are related, not only h ~ h


def test_relations_still_raise_key_error_outside_the_system(t1):
    s = Profile.of({"a": "0"})
    with pytest.raises(KeyError):
        s["z"]
    with pytest.raises(KeyError):
        profile_agrees(s, s, frozenset({"z"}))
    run = h(t1, "w0 ; a=1 ; w1")
    for g in (h(t1, "w0"), run):
        with pytest.raises(KeyError):
            hist_indist(t1, g, g, frozenset({"z"}))
    with pytest.raises(KeyError):
        hist_indist(t1, run, run, frozenset({"a", "z"}))
    stranger = History(("nope",), ())
    with pytest.raises(KeyError):
        hist_indist(t1, stranger, stranger, A)
    with pytest.raises(KeyError):
        hist_indist(t1, h(t1, "w0"), stranger, A)


def test_hist_indist_answers_false_before_reaching_what_is_outside_the_system(t1):
    # the first difference decides; a lookup past it is never made
    s = Profile.of({"a": "0"})
    assert not hist_indist(t1, h(t1, "w0 ; a=1 ; w1"),
                           History(("w2", "nope"), (s,)), A)
    # unequal lengths decide before any member is looked up
    assert not hist_indist(t1, h(t1, "w0"), h(t1, "w0 ; a=1 ; w1"),
                           frozenset({"z"}))


def test_hist_indist_answers_alike_for_equal_profiles_that_are_other_objects(t2):
    # the same profile object agrees with itself without a lookup; equal
    # profiles built afresh must get the same answers the long way
    def rebuilt(g):
        return History(g.states, tuple(Profile.of(dict(s.votes)) for s in g.profiles))

    level1, level2 = histories_of_length(t2, 1), histories_of_length(t2, 2)
    pairs = [(g1, g2) for n in range(2) for g1 in histories_of_length(t2, n)
             for g2 in histories_of_length(t2, n)]
    pairs += [(g1, g2) for g1 in level2[::8] for g2 in level2]
    fresh = {g: rebuilt(g) for g in (*level1, *level2)}
    for g, r in fresh.items():
        assert r == g
        assert all(s is not t for s, t in zip(r.profiles, g.profiles))
    coalitions = [frozenset(c) for n in range(len(t2.agents) + 1)
                  for c in itertools.combinations(sorted(t2.agents), n)]
    related = 0
    for c in coalitions:
        for g1, g2 in pairs:
            expected = hist_indist(t2, g1, g2, c)
            r1, r2 = fresh.get(g1, g1), fresh.get(g2, g2)
            assert hist_indist(t2, r1, r2, c) == expected, (g1, g2, c)
            assert hist_indist(t2, r1, g2, c) == expected, (g1, g2, c)
            related += bool(c) and expected and g1 != g2
    assert related > 0  # some distinct pairs are related by a nonempty coalition


def test_extensions_of_sink_state(t1):
    exts = set(extensions(t1, h(t1, "w2")))
    assert exts == {h(t1, "w2 ; a=0 ; w2"), h(t1, "w2 ; a=1 ; w2")}


def test_extensions_nonempty_everywhere_on_regular_system(t1):
    for n in range(3):
        for g in histories_of_length(t1, n):
            assert extensions(t1, g)


def test_t2_w0_has_one_extension_per_complete_profile(t2):
    # oracle: the fixture is deterministic, so 2^3 profiles mean 8 extensions
    combos = list(itertools.product("01", repeat=3))
    assert len(combos) == 8
    exts = extensions(t2, h(t2, "w0"))
    assert len(exts) == 8
    assert {e.profiles[-1] for e in exts} == set(t2.complete_profiles)


def test_history_counts(t1):
    assert len(histories_of_length(t1, 0)) == len(t1.states)
    # oracle: every mechanism triple is exactly one length-1 history
    assert len(histories_of_length(t1, 1)) == len(t1.mechanism) == 12
    with pytest.raises(ValueError, match="^history length must be non-negative$"):
        histories_of_length(t1, -1)


def test_relations_are_equivalences_on_t1(t1):
    states = sorted(t1.states)
    for w1, w2, w3 in itertools.product(states, repeat=3):
        assert state_indist(t1, w1, w1, A)
        assert state_indist(t1, w1, w2, A) == state_indist(t1, w2, w1, A)
        if state_indist(t1, w1, w2, A) and state_indist(t1, w2, w3, A):
            assert state_indist(t1, w1, w3, A)
    hs = histories_of_length(t1, 2)
    for h1 in hs:
        assert hist_indist(t1, h1, h1, A)
        for h2 in hs:
            assert hist_indist(t1, h1, h2, A) == hist_indist(t1, h2, h1, A)
            if not hist_indist(t1, h1, h2, A):
                continue
            for h3 in hs:
                if hist_indist(t1, h2, h3, A):
                    assert hist_indist(t1, h1, h3, A)


def test_coalition_anti_monotonicity(t2):
    hs = histories_of_length(t2, 1)
    small, big = frozenset({"a"}), frozenset({"a", "b"})
    for h1 in hs:
        for h2 in hs:
            if hist_indist(t2, h1, h2, big):
                assert hist_indist(t2, h1, h2, small)


def test_decomposition_of_related_extensions(t2):
    hs = histories_of_length(t2, 2)
    coalition = frozenset({"a", "c"})
    for h1 in hs:
        for h2 in hs:
            if not hist_indist(t2, h1, h2, coalition):
                continue
            p1 = History(h1.states[:-1], h1.profiles[:-1])
            p2 = History(h2.states[:-1], h2.profiles[:-1])
            assert hist_indist(t2, p1, p2, coalition)
            assert profile_agrees(h1.profiles[-1], h2.profiles[-1], coalition)
            assert state_indist(t2, h1.head, h2.head, coalition)


def test_parse_history_validates(t2):
    with pytest.raises(InvalidHistoryError):
        parse_history(t2, "w0 ; a=1 ; w4")  # incomplete profile
    with pytest.raises(InvalidHistoryError):
        parse_history(t2, "w0 ; a=0,b=0,c=0 ; w4")  # not a mechanism edge
    with pytest.raises(InvalidHistoryError):
        parse_history(t2, "w9")
    with pytest.raises(InvalidHistoryError):
        parse_history(t2, "w0 ; a=1,b=1,c=9 ; w4")
    ok = parse_history(t2, "w0 ; a=1,b=1,c=0 ; w4 ; a=0,b=0,c=0 ; w4")
    assert ok.length == 2 and ok.head == "w4"


def test_parse_history_returns_the_nodes_of_the_history_tree(t1):
    run = h(t1, "w0 ; a=1 ; w1 ; a=0 ; w2")
    # built from its tuples, a history equals and hashes like the parsed one
    copy = History(run.states, run.profiles)
    assert copy is not run and copy == run and hash(copy) == hash(run)
    assert run in histories_of_length(t1, 2)
    with pytest.raises(InvalidHistoryError,
                       match=r"^\(w1 ; a=1 ; w0\) is not a mechanism transition$"):
        h(t1, "w0 ; a=1 ; w1 ; a=1 ; w0")


def _move_key(move):
    # profiles have no order; a state's moves are listed by votes, then target
    profile, target = move
    return profile.votes, target


def test_successors_follow_profile_order_whatever_the_mechanism_order():
    agents, states, choices = ["a", "b"], ["w0", "w1", "w2"], ["0", "1", "2"]
    rng = random.Random(7)
    listed = [(w1, Profile.of(dict(zip(agents, combo))), w2)
              for w1 in states
              for combo in itertools.product(choices, repeat=len(agents))
              for w2 in rng.sample(states, rng.randint(1, 3))]
    # each triple again, with a profile that is another object
    mechanism = listed + [(w1, Profile(s.votes), w2) for w1, s, w2 in listed]
    rng.shuffle(mechanism)
    ets = EpistemicTransitionSystem(agents, states, choices, {}, mechanism, {})
    assert ets.mechanism == set(listed)
    own = set(map(id, ets.complete_profiles))
    for w in states:
        assert ets.successors(w) == tuple(sorted(
            {(s, w2) for w1, s, w2 in listed if w1 == w}, key=_move_key))
        # neither the listed objects nor their copies: the system's own
        assert all(id(s) in own for s, _ in ets.successors(w))


def test_a_parsed_anchor_holds_the_systems_own_profiles(t2):
    anchor = h(t2, "w0 ; a=1,b=1,c=0 ; w4 ; c=0,b=0,a=0 ; w4")
    for w1, s, w2 in zip(anchor.states, anchor.profiles, anchor.states[1:]):
        assert any(s is t and w2 == v for t, v in t2.successors(w1))
    # a step that is no move names its state, votes and target
    with pytest.raises(InvalidHistoryError,
                       match=r"^\(w4 ; a=0,b=0,c=0 ; w0\) is not a mechanism transition$"):
        h(t2, "w0 ; a=1,b=1,c=0 ; w4 ; c=0,b=0,a=0 ; w0")


def test_history_shape_is_checked():
    with pytest.raises(InvalidHistoryError):
        History(("w0", "w1"), ())


def test_profile_accessors():
    s = Profile.of({"b": "1", "a": "0"})
    assert s.votes == (("a", "0"), ("b", "1"))
    assert s["a"] == "0" and s["b"] == "1"
    assert s.agents == AB
    assert str(s) == "a=0,b=1"


def test_wildcard_patterns_accumulate():
    text = """
agents: a b
choices: 0 1
states: w0 w1
trans w0 [a=0] w0
trans w0 [] w1
trans w1 [] w1
"""
    ets = load_system(text)
    # the explicit a=0 pattern and the catch-all both contribute edges
    succ = dict()
    for profile, w in ets.successors("w0"):
        succ.setdefault(profile, set()).add(w)
    for profile in ets.complete_profiles:
        expected = {"w0", "w1"} if profile["a"] == "0" else {"w1"}
        assert succ[profile] == expected


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _listed_mechanism(text):
    """Each ``trans`` line's profiles, expanded here without the loader."""
    decls = dict(line.split(":", 1) for line in text.splitlines()
                 if line.split(":")[0] in ("agents", "choices"))
    agents, choices = decls["agents"].split(), decls["choices"].split()
    triples = set()
    for line in text.splitlines():
        line = line.split("#", 1)[0]
        if line.startswith("trans"):
            w1, pattern, w2 = re.fullmatch(
                r"trans\s+(\S+)\s+\[(.*)\]\s+(\S+)\s*", line).groups()
            fixed = dict(item.replace(" ", "").split("=")
                         for item in pattern.split(",") if item.strip())
            for combo in itertools.product(choices, repeat=len(agents)):
                votes = dict(zip(agents, combo))
                if fixed.items() <= votes.items():
                    triples.add((w1, Profile.of(votes), w2))
    return triples


def _workload_model_texts(monkeypatch):
    # the benchmark's generator imports nothing from knowhow
    monkeypatch.syspath_prepend(str(PERFBENCH))
    gen, workloads = importlib.import_module("gen"), importlib.import_module("workloads")
    for inputs in (workloads.check_inputs, workloads.horizon_inputs):
        for seed in (1, 2, 3):
            models, _ = inputs(seed, 1.0)
            yield from map(gen.model_text, models)


def _random_model(rng):
    """A model over 1-4 agents and 2-3 choices declared out of order, whose
    ``trans`` lines fix random votes: ``[]``, overlapping and repeated
    patterns included."""
    agents = rng.sample(["a", "b", "c", "d"], rng.randint(1, 4))
    choices = rng.sample(["2", "0", "1"], rng.randint(2, 3))
    states = [f"w{i}" for i in range(rng.randint(1, 3))]
    lines = [f"agents: {' '.join(agents)}", f"choices: {' '.join(choices)}",
             f"states: {' '.join(states)}"]
    for _ in range(rng.randint(1, 8)):
        fixed = rng.sample(agents, rng.randint(0, len(agents)))
        pattern = " , ".join(f"{a}={rng.choice(choices)}" for a in fixed)
        line = f"trans {rng.choice(states)} [{pattern}] {rng.choice(states)}"
        lines += [line] * rng.randint(1, 2)
    rng.shuffle(lines)
    return "\n".join(lines)


def test_models_load_to_the_transitions_they_list(monkeypatch):
    texts = [fixture_text("t1"), fixture_text("t2"),
             *_workload_model_texts(monkeypatch)]
    assert len(texts) == 2 + 3 * (32 + 64)
    rng = random.Random(3)
    for i, text in enumerate(texts + [_random_model(rng) for _ in range(400)]):
        ets = load_system(text)
        if i < len(texts):
            assert check_regular(ets) == [], text
        listed = _listed_mechanism(text)
        assert ets.mechanism == listed, text
        for w in ets.states:
            assert ets.successors(w) == tuple(sorted(
                ((s, w2) for w1, s, w2 in listed if w1 == w), key=_move_key)), text


def test_coalition_profiles_are_listed_in_votes_order():
    # eleven choices: "10" sorts before "2"
    choices = [str(i) for i in range(11)]
    ets = EpistemicTransitionSystem(["c", "a", "b"], ["w"], choices, {}, (), {})
    for size in range(4):
        for coalition in itertools.combinations("bca", size):
            members = sorted(coalition)
            expected = [tuple(zip(members, combo))
                        for combo in itertools.product(sorted(choices), repeat=size)]
            votes = [s.votes for s in ets.profiles_over(frozenset(coalition))]
            assert votes == expected == sorted(expected)
    assert ets.profiles_over(frozenset()) == (Profile(()),)
    assert ets.complete_profiles == ets.profiles_over(ets.agents)


def test_transition_diagnostics_keep_their_text():
    agents, states, choices = ["a", "b"], ["w0"], ["0", "1"]
    for profile, message in (
            (Profile.of({"a": "0"}), "transition profile a=0 is not over the declared agents"),
            (Profile.of({"a": "0", "b": "2"}), "transition uses undeclared choice '2'"),
            # declared agents and choices, but votes out of agent order
            (Profile((("b", "0"), ("a", "0"))),
             "transition profile b=0,a=0 does not list its votes once per agent "
             "in agent order")):
        with pytest.raises(ModelFormatError) as err:
            EpistemicTransitionSystem(agents, states, choices, {},
                                      [("w0", profile, "w0")], {})
        assert str(err.value) == message
    base = "agents: a b\nchoices: 0 1\nstates: w0\ntrans w0 [a=0] w0\n"
    for line, message in (("trans w0 [c=0] w0", "undeclared agent 'c'"),
                          ("trans w0 [a=2] w0", "undeclared choice '2'"),
                          ("trans w9 [a=0] w0", "undeclared state 'w9'")):
        with pytest.raises(ModelFormatError) as err:
            load_system(base + line + "\n")
        assert str(err.value) == f"line 5: {message}"
