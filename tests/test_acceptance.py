"""Acceptance criteria, one test per criterion, one report line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the report lines.
"""
import random
import time
from dataclasses import replace

from knowhow.checker import evaluate, evaluate_naive, witness
from knowhow.formula import (
    Atom, Falsum, How, Implies, Not, format_formula, parse,
    uses_empty_coalition,
)
from knowhow.fixtures import fixture_text, proof_text, read_claims
from knowhow.harness import (
    GenParams, gen_formula, gen_system, lemma_suite, soundness_suite,
)
from knowhow.proofkit import (
    Derivation, Line, Tautology, derive_superdistributivity_instance,
    parse_derivation, verify,
)
from knowhow.system import (
    extensions, hist_indist, histories_of_length, parse_history,
    profile_agrees,
)


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def claim_checks(name):
    """Every check of a bundled claim list, as (literal, formula, expected)."""
    return [check[:3] for _, checks in read_claims(fixture_text(name, ".claims"))
            for check in checks]


def test_criterion_1_t1_regression(t1):
    checks = claim_checks("t1")
    start = time.perf_counter()
    outcomes = [
        evaluate(t1, parse_history(t1, literal), parse(text)).value is expected
        for literal, text, expected in checks]
    elapsed = time.perf_counter() - start
    for literal, text, expected in checks:
        assert evaluate_naive(t1, parse_history(t1, literal), parse(text)).value \
            is expected
    report("criterion 1 (bundled six-state example, exact)",
           all(outcomes) and elapsed < 1.0,
           f"{sum(outcomes)}/{len(outcomes)} claims in {elapsed:.3f}s")


def test_criterion_2_t2_regression(t2):
    checks = claim_checks("t2")
    start = time.perf_counter()
    outcomes = [
        evaluate(t2, parse_history(t2, literal), parse(text)).value is expected
        for literal, text, expected in checks]
    elapsed = time.perf_counter() - start
    report("criterion 2 (bundled voting example, exact)",
           all(outcomes) and elapsed < 1.0,
           f"{sum(outcomes)}/{len(outcomes)} claims in {elapsed:.3f}s")


def test_criterion_3_proof_corpus():
    accepted = [
        "positive_introspection.proof",
        "strategic_negative_introspection.proof",
        "how_coalition_widening.proof",
    ]
    ok = all(verify(parse_derivation(proof_text(name))).ok for name in accepted)

    def core(text):
        f = parse(text)
        return Derivation((), (Line(f, Tautology()),), f)

    emitted = [
        derive_superdistributivity_instance(
            [frozenset({"a"})], [parse("p")], parse("p"), core("p -> p")),
        derive_superdistributivity_instance(
            [frozenset({"a"}), frozenset({"b"})],
            [parse("p"), parse("p -> q")], parse("q"),
            core("p -> ((p -> q) -> q)")),
        derive_superdistributivity_instance(
            [frozenset({"a"}), frozenset({"b"}), frozenset({"c"})],
            [parse("p"), parse("q"), parse("r")], parse("p -> (q -> r)"),
            core("p -> (q -> (r -> (p -> (q -> r))))")),
    ]
    ok = ok and all(verify(d).ok for d in emitted)

    rejected = [
        ("bad_necessitation_on_hypothesis.proof", 2),
        ("bad_cooperation_overlap.proof", 2),
        ("bad_perfect_recall_empty_coalition.proof", 2),
    ]
    rejections_right = []
    for name, expected_line in rejected:
        result = verify(parse_derivation(proof_text(name)))
        rejections_right.append(not result.ok and result.line == expected_line)
    ok = ok and all(rejections_right)
    report("criterion 3 (proof corpus)",
           ok,
           f"{len(accepted)} lemma files ok, {len(emitted)} emitted instances ok, "
           f"{sum(rejections_right)}/3 negative controls rejected at the right line")


def test_criterion_4_soundness_fuzz():
    params = GenParams(seed=20260810, num_states=4, num_agents=2,
                       num_choices=2, history_depth=3)
    start = time.perf_counter()
    rep = soundness_suite(params, num_systems=50, num_instances=5)
    elapsed = time.perf_counter() - start
    ok = (rep.systems == 50 and rep.checked >= 2000
          and not rep.violations and not rep.guard_rejections
          and elapsed < 60.0)
    report("criterion 4 (soundness fuzz)", ok,
           f"{rep.checked} instances on {rep.systems} systems, "
           f"{len(rep.violations)} violations, {elapsed:.1f}s")


def test_criterion_5_lemma_suite(t1, t2):
    params = GenParams(seed=99, history_depth=3)
    rep = lemma_suite(params, num_systems=20, extra_systems=(t1, t2))
    ok = rep.systems == 22 and not rep.failures
    report("criterion 5 (lemma suite)", ok,
           f"{rep.relation_checks} relation checks and "
           f"{rep.property_checks} property checks on {rep.systems} systems, "
           f"{len(rep.failures)} failures")


def _modal_depth(f):
    if isinstance(f, (Atom, Falsum)):
        return 0
    if isinstance(f, Not):
        return _modal_depth(f.sub)
    if isinstance(f, Implies):
        return max(_modal_depth(f.left), _modal_depth(f.right))
    return 1 + _modal_depth(f.sub)  # Know or How


def test_criterion_6_oracle_equivalence():
    rng = random.Random(424242)
    disagreements = 0
    checked = 0
    base = GenParams(seed=0, num_states=3, num_agents=2, num_choices=2,
                     branching=1.1, formula_depth=3, history_depth=2)
    for system_index in range(100):
        params = replace(base, seed=system_index)
        ets = gen_system(params)
        agents = tuple(sorted(ets.agents))
        props = tuple(sorted(ets.valuation))
        pool = [h for n in range(3) for h in histories_of_length(ets, n)]
        for k in range(10):
            f = gen_formula(params, props, agents, salt=k)
            assert not uses_empty_coalition(f)
            # deep modal nesting is exponential for the naive oracle; keep
            # long histories for the shallow formulas
            max_length = max(1, 4 - _modal_depth(f))
            h = rng.choice([g for g in pool if g.length <= max_length])
            fast = evaluate(ets, h, f).value
            slow = evaluate_naive(ets, h, f).value
            checked += 1
            disagreements += fast != slow
    report("criterion 6 (oracle equivalence)",
           checked == 1000 and disagreements == 0,
           f"{checked} triples, {disagreements} disagreements")


def _replay_know_how_clause(ets, h, coalition, strategy, body) -> bool:
    # independent transcription of the know-how clause for one profile
    for g in histories_of_length(ets, h.length):
        if not hist_indist(ets, h, g, coalition):
            continue
        for ext in extensions(ets, g):
            if profile_agrees(ext.profiles[-1], strategy, coalition):
                if not evaluate_naive(ets, ext, body).value:
                    return False
    return True


def test_criterion_7_witness_soundness():
    rng = random.Random(777)
    base = GenParams(seed=0, num_states=3, num_agents=2, num_choices=2,
                     branching=1.2, formula_depth=1, history_depth=2)
    true_verdicts = false_verdicts = 0
    for system_index in range(30):
        params = replace(base, seed=1000 + system_index)
        ets = gen_system(params)
        agents = sorted(ets.agents)
        props = tuple(sorted(ets.valuation))
        pool = [h for n in range(3) for h in histories_of_length(ets, n)]
        bodies = [gen_formula(params, props, tuple(agents), salt=k)
                  for k in range(6)]
        bodies += [parse("p -> p"), parse("false")]
        for k in range(10):
            coalition = frozenset(rng.sample(agents, rng.randint(1, len(agents))))
            body = rng.choice(bodies)
            h = rng.choice(pool)
            verdict = evaluate(ets, h, How(coalition, body))
            found = witness(ets, h, coalition, body).strategy
            if verdict.value:
                true_verdicts += 1
                assert found is not None, (h, coalition, body)
                assert _replay_know_how_clause(ets, h, coalition, found, body)
            else:
                false_verdicts += 1
                assert found is None
                for profile in ets.profiles_over(coalition):
                    assert not _replay_know_how_clause(ets, h, coalition,
                                                       profile, body)
    report("criterion 7 (witness soundness)",
           true_verdicts >= 50 and false_verdicts >= 50,
           f"{true_verdicts} replayed witnesses, "
           f"{false_verdicts} exhaustively refuted queries")


def test_criterion_8_parser_round_trip():
    failures = 0
    total = 0
    for depth in range(5):
        params = GenParams(seed=depth, formula_depth=depth)
        for salt in range(2000):
            f = gen_formula(params, ("p", "q", "r", "w0'"),
                            ("a", "b", "c'", "d_1"),
                            allow_empty_coalition=True, salt=salt)
            total += 1
            if parse(format_formula(f)) != f:
                failures += 1
    report("criterion 8 (parser round-trip)",
           total == 10_000 and failures == 0,
           f"{total} formulas, {failures} round-trip failures")
