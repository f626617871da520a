"""Random regular systems and formulas, plus executable property suites.

The soundness suite instantiates each axiom schema with random formulas and
coalitions (side conditions respected), evaluates the instances at histories
of generated systems, and double-checks any would-be counterexample with the
naive oracle so a checker bug cannot masquerade as a logic violation.  The
lemma suite exercises the equivalence-relation, length, and decomposition
properties of the three indistinguishability relations and the derived
semantic laws of the modalities.  Both are deterministic in the seed.

The history-relation check is the lemma suite's main cost.  Its pair set is
fixed by the seed: per level and coalition, all pairs inside small
signature buckets, representative pairs and a sample inside big ones, and a
capped sample across buckets, so O(level size) pairs.  Each pair is one
``hist_indist`` call of O(length x |C|) lookups.  Past length 0 a related
pair is checked again on its decomposition.  A history's prefix is its
parent in the level below, and the prefix pair, the last-profile pair and
the head pair are each decided once per distinct pair per level and
coalition, however many related pairs share them.
"""
from __future__ import annotations

import functools
import hashlib
import itertools
import random
from dataclasses import dataclass, field, replace

from .formula import (
    Atom, Coalition, Falsum, Formula, How, Implies, Know, Not,
    h_depth, uses_empty_coalition,
)
from .system import (
    EpistemicTransitionSystem, History, Profile, check_profile_count,
    histories_of_length, hist_indist, profile_agrees, state_indist,
)
from .checker import Verdict, evaluate, evaluate_naive
from .proofkit import AxiomName, match_axiom


class GenParamsError(ValueError):
    """Generator parameters that describe no system or no history."""


@dataclass
class GenParams:
    """Knobs for the generators; deterministic given ``seed``."""

    seed: int = 0
    num_states: int = 4
    num_agents: int = 2
    num_choices: int = 2
    branching: float = 1.2  # expected successors per (state, profile)
    formula_depth: int = 2
    history_depth: int = 3
    horizon: int = 6

    def __post_init__(self):
        if self.num_states < 1 or self.num_agents < 1 or self.num_choices < 1:
            raise GenParamsError("need at least one state, agent, and choice")
        if self.history_depth < 0 or self.formula_depth < 0:
            raise GenParamsError("history and formula depth must be non-negative")
        if self.branching < 1.0:
            raise GenParamsError("branching below 1 would break regularity")
        if self.horizon < self.history_depth + self.formula_depth:
            raise GenParamsError(
                "horizon must cover history depth plus formula depth")
        check_profile_count(self.num_agents, self.num_choices, GenParamsError)


def _rng(params: GenParams, *salt) -> random.Random:
    # hash-based tuple seeding is process-dependent for strings; derive a
    # stable integer seed instead so runs reproduce across interpreters
    key = repr((params.seed, salt)).encode()
    return random.Random(int.from_bytes(hashlib.sha256(key).digest()[:8], "big"))


PROPS = ("p", "q", "r")


def gen_system(params: GenParams) -> EpistemicTransitionSystem:
    """Random system, regular by construction: every pair gets a successor."""
    rng = _rng(params, "system")
    states = [f"s{i}" for i in range(params.num_states)]
    agents = [f"a{i}" for i in range(params.num_agents)]
    choices = [str(i) for i in range(params.num_choices)]

    indist_blocks: dict[str, list[list[str]]] = {}
    for agent in agents:
        labels = [rng.randrange(1 + rng.randrange(params.num_states))
                  for _ in states]
        blocks: dict[int, list[str]] = {}
        for state, label in zip(states, labels):
            blocks.setdefault(label, []).append(state)
        indist_blocks[agent] = [b for b in blocks.values() if len(b) > 1]

    extra = params.branching - 1.0
    mechanism = []
    profiles = [Profile(tuple(zip(agents, combo)))
                for combo in itertools.product(choices, repeat=len(agents))]
    for w in states:
        for profile in profiles:
            count = 1 + int(extra) + (1 if rng.random() < extra - int(extra) else 0)
            count = min(count, len(states))
            for w2 in rng.sample(states, count):
                mechanism.append((w, profile, w2))

    num_props = rng.randint(2, 3)
    valuation = {
        prop: [w for w in states if rng.random() < 0.5]
        for prop in PROPS[:num_props]}
    return EpistemicTransitionSystem(
        agents, states, choices, indist_blocks, mechanism, valuation)


def gen_coalition(rng: random.Random, agents: tuple[str, ...],
                  allow_empty: bool = False) -> Coalition:
    low = 0 if allow_empty else 1
    size = rng.randint(low, len(agents))
    return frozenset(rng.sample(agents, size))


def gen_formula(params: GenParams, props: tuple[str, ...],
                agents: tuple[str, ...], *, allow_empty_coalition: bool = False,
                salt=0) -> Formula:
    """Random formula of depth at most ``params.formula_depth``."""
    rng = _rng(params, "formula", salt)
    return _gen_formula(rng, params.formula_depth, props, agents,
                        allow_empty_coalition)


def _gen_formula(rng, depth, props, agents, allow_empty) -> Formula:
    if depth <= 0:
        return Falsum() if rng.random() < 0.1 else Atom(rng.choice(props))
    kind = rng.choice(("atom", "not", "implies", "know", "how"))
    if kind == "atom":
        return Falsum() if rng.random() < 0.1 else Atom(rng.choice(props))
    if kind == "not":
        return Not(_gen_formula(rng, depth - 1, props, agents, allow_empty))
    if kind == "implies":
        return Implies(_gen_formula(rng, depth - 1, props, agents, allow_empty),
                       _gen_formula(rng, depth - 1, props, agents, allow_empty))
    coalition = gen_coalition(rng, agents,
                              allow_empty and rng.random() < 0.3)
    sub = _gen_formula(rng, depth - 1, props, agents, allow_empty)
    return Know(coalition, sub) if kind == "know" else How(coalition, sub)


# --- axiom schema instantiation ---------------------------------------------

def instantiate_axiom(schema: AxiomName, rng: random.Random,
                      props: tuple[str, ...], agents: tuple[str, ...],
                      depth: int, allow_empty: bool = True) -> Formula:
    """Random instance of the schema, side conditions guaranteed."""

    def sub() -> Formula:
        return _gen_formula(rng, rng.randint(0, depth), props, agents, False)

    def coalition(nonempty=False) -> Coalition:
        return gen_coalition(rng, agents,
                             allow_empty=allow_empty and not nonempty
                             and rng.random() < 0.2)

    x, y = sub(), sub()
    if schema is AxiomName.TRUTH:
        return Implies(Know(coalition(), x), x)
    if schema is AxiomName.NEGATIVE_INTROSPECTION:
        body = Not(Know(coalition(), x))
        return Implies(body, Know(body.sub.coalition, body))
    if schema is AxiomName.DISTRIBUTIVITY:
        c = coalition()
        return Implies(Know(c, Implies(x, y)),
                       Implies(Know(c, x), Know(c, y)))
    if schema is AxiomName.MONOTONICITY:
        big = coalition()
        # one draw per member in sorted order: a frozenset of names iterates
        # in str-hash order, which changes with PYTHONHASHSEED
        small = frozenset(a for a in sorted(big) if rng.random() < 0.6)
        return Implies(Know(small, x), Know(big, x))
    if schema is AxiomName.STRATEGIC_POSITIVE_INTROSPECTION:
        body = How(coalition(), x)
        return Implies(body, Know(body.coalition, body))
    if schema is AxiomName.COOPERATION:
        shuffled = list(agents)
        rng.shuffle(shuffled)
        cut = rng.randint(0, len(shuffled))
        c = frozenset(a for a in shuffled[:cut] if rng.random() < 0.7)
        d = frozenset(a for a in shuffled[cut:] if rng.random() < 0.7)
        return Implies(How(c, Implies(x, y)),
                       Implies(How(d, x), How(c | d, y)))
    if schema is AxiomName.EMPTY_COALITION:
        return Implies(Know(frozenset(), x), How(frozenset(), x))
    if schema is AxiomName.PERFECT_RECALL:
        c = coalition(nonempty=True)
        d = frozenset(a for a in sorted(c) if rng.random() < 0.5)
        return Implies(How(d, x), How(d, Know(c, x)))
    if schema is AxiomName.UNACHIEVABILITY_OF_FALSEHOOD:
        return Not(How(coalition(), Falsum()))
    raise ValueError(f"unknown schema {schema!r}")


# --- soundness suite ---------------------------------------------------------

@dataclass
class InstanceCheck:
    system_seed: int
    schema: AxiomName
    formula: Formula
    history: History
    status: str  # "ok" | "guard_rejected" | "violation"
    bounded: bool


@dataclass
class SoundnessReport:
    params: GenParams
    systems: int = 0
    checked: int = 0
    bounded_count: int = 0
    guard_rejections: list[InstanceCheck] = field(default_factory=list)
    violations: list[InstanceCheck] = field(default_factory=list)

    def to_lines(self) -> list[str]:
        lines = [
            f"soundness: seed={self.params.seed} systems={self.systems} "
            f"instances={self.checked} bounded={self.bounded_count} "
            f"violations={len(self.violations)}",
        ]
        for bad in self.guard_rejections:
            lines.append(
                f"  GUARD seed={bad.system_seed} {bad.schema.value}: {bad.formula}")
        for bad in self.violations:
            lines.append(
                f"  VIOLATION seed={bad.system_seed} {bad.schema.value}: "
                f"{bad.formula} at ({bad.history})")
        return lines

    def to_dict(self) -> dict:
        return {
            "suite": "soundness",
            "seed": self.params.seed,
            "systems": self.systems,
            "instances": self.checked,
            "bounded": self.bounded_count,
            "violations": [
                {"system_seed": v.system_seed, "schema": v.schema.value,
                 "formula": str(v.formula), "history": str(v.history)}
                for v in self.violations],
        }

    def __str__(self):
        return "\n".join(self.to_lines())


def _evaluate_confirmed(ets: EpistemicTransitionSystem, h: History,
                        f: Formula, horizon: int | None = None) -> Verdict:
    """``evaluate``, with a False verdict confirmed by the naive oracle.

    A checker bug can then neither pass for a broken law nor hide one: a
    False verdict the oracle does not share raises.
    """
    verdict = evaluate(ets, h, f, horizon)
    if not verdict.value and evaluate_naive(ets, h, f, horizon).value:
        raise AssertionError(f"evaluate and evaluate_naive disagree on {f} at {h}")
    return verdict


def check_instance(ets: EpistemicTransitionSystem, schema: AxiomName,
                   instance: Formula, h: History, horizon: int,
                   system_seed: int = 0) -> InstanceCheck:
    """Guard the instance through the schema matcher, then evaluate it.

    A False verdict is only recorded as a violation after the independent
    naive evaluator confirms it.
    """
    if schema not in match_axiom(instance):
        return InstanceCheck(system_seed, schema, instance, h, "guard_rejected", False)
    effective = None
    if uses_empty_coalition(instance):
        # one shared horizon covers every empty-coalition clause inside
        effective = max(horizon, h.length + h_depth(instance))
    verdict = _evaluate_confirmed(ets, h, instance, effective)
    status = "ok" if verdict.value else "violation"
    return InstanceCheck(system_seed, schema, instance, h, status, verdict.bounded)


def soundness_suite(params: GenParams, num_systems: int = 10,
                    num_instances: int = 5) -> SoundnessReport:
    """Fuzz every axiom schema: ``num_instances`` instances per schema per system."""
    if num_systems < 0 or num_instances < 0:
        raise GenParamsError("system and instance counts must be non-negative")
    report = SoundnessReport(params)
    for i in range(num_systems):
        sys_params = replace(params, seed=params.seed * 1_000_003 + i)
        ets = gen_system(sys_params)
        report.systems += 1
        rng = _rng(sys_params, "soundness")
        agents = tuple(sorted(ets.agents))
        props = tuple(sorted(ets.valuation) or ("p",))
        pool = [h for n in range(params.history_depth + 1)
                for h in histories_of_length(ets, n)]
        short_pool = [h for h in pool if h.length <= 1]
        for schema in AxiomName:
            for _ in range(num_instances):
                instance = instantiate_axiom(
                    schema, rng, props, agents, depth=1)
                # empty-coalition instances enumerate whole history levels;
                # keep their anchor histories short and their horizon near
                # the floor so the level sizes stay manageable
                if uses_empty_coalition(instance):
                    anchor = rng.choice(short_pool)
                    floor = anchor.length + h_depth(instance)
                    slack = 1 if rng.random() < 0.3 else 0
                    budget = min(params.horizon, floor + slack)
                else:
                    anchor = rng.choice(pool)
                    budget = params.horizon
                result = check_instance(ets, schema, instance, anchor,
                                        budget, sys_params.seed)
                report.checked += 1
                report.bounded_count += result.bounded
                if result.status == "guard_rejected":
                    report.guard_rejections.append(result)
                elif result.status == "violation":
                    report.violations.append(result)
    return report


# --- lemma suite -------------------------------------------------------------

@dataclass
class LemmaReport:
    params: GenParams
    systems: int = 0
    relation_checks: int = 0
    property_checks: int = 0
    bounded_count: int = 0
    failures: list[str] = field(default_factory=list)

    def to_lines(self) -> list[str]:
        lines = [
            f"lemmas: seed={self.params.seed} systems={self.systems} "
            f"relation_checks={self.relation_checks} "
            f"property_checks={self.property_checks} "
            f"failures={len(self.failures)}",
        ]
        lines.extend(f"  FAILURE {f}" for f in self.failures)
        return lines

    def to_dict(self) -> dict:
        return {
            "suite": "lemmas",
            "seed": self.params.seed,
            "systems": self.systems,
            "relation_checks": self.relation_checks,
            "property_checks": self.property_checks,
            "failures": list(self.failures),
        }

    def __str__(self):
        return "\n".join(self.to_lines())


def check_equivalence(items, related) -> list[str]:
    """Reflexivity, symmetry, and transitivity of ``related`` over ``items``."""
    problems = []
    for x in items:
        if not related(x, x):
            problems.append(f"not reflexive at {x}")
    for x in items:
        for y in items:
            if related(x, y) != related(y, x):
                problems.append(f"not symmetric at {x}, {y}")
    for x in items:
        for y in items:
            if not related(x, y):
                continue
            for z in items:
                if related(y, z) and not related(x, z):
                    problems.append(f"not transitive at {x}, {y}, {z}")
    return problems


def _coalitions(agents: frozenset[str], include_empty: bool):
    members = sorted(agents)
    out = []
    for mask in range(0 if include_empty else 1, 1 << len(members)):
        out.append(frozenset(m for i, m in enumerate(members) if mask >> i & 1))
    return out


def _history_signature(h: History, tables: tuple) -> tuple:
    # independent unfolding of per-agent indistinguishability: block ids of
    # the visited states plus the member's own votes, per member
    return tuple(
        (tuple(table[w] for w in h.states),
         tuple(s[a] for s in h.profiles))
        for a, table in tables)


def _check_history_relation(ets, coalition: Coalition, length: int,
                            rng: random.Random, report: LemmaReport,
                            label: str) -> None:
    """Check ``hist_indist`` for ``coalition`` on one level against the signatures.

    The pairs, and the draws they take from ``rng``, depend only on the
    level and its signature buckets, so ``relation_checks`` counts the same
    pairs however cheap each check is.  A bucket of b histories gives b^2
    pairs when b <= 12 and 2b + 100 otherwise; past length 0 a related pair
    is checked again on its decomposition.  Across buckets there are at
    most 200 + (number of buckets) pairs.
    """
    hs = histories_of_length(ets, length)
    # each member's state -> block-index table, unfolded once per level from
    # the declared partition ``ets.indist``, not looked up once per state
    tables = tuple((a, {w: i for i, block in enumerate(ets.indist[a]) for w in block})
                   for a in sorted(coalition))
    # histories are named by their index in the level
    buckets: dict[tuple, list[int]] = {}
    for i, h in enumerate(hs):
        buckets.setdefault(_history_signature(h, tables), []).append(i)

    # decomposition: a related pair of extended histories has a related
    # prefix pair, last profiles that agree and indistinct heads.  A level
    # lists each parent's extensions in order, so a history's prefix is its
    # parent in the level below; each of the three relations is decided
    # once per distinct argument pair
    if length:
        prev = histories_of_length(ets, length - 1)
        parent = [p for p, g in enumerate(prev) for _ in ets.successors(g.head)]
        prefixes = functools.cache(
            lambda p1, p2: hist_indist(ets, prev[p1], prev[p2], coalition))
        profiles = functools.cache(lambda s1, s2: profile_agrees(s1, s2, coalition))
        heads = functools.cache(lambda w1, w2: state_indist(ets, w1, w2, coalition))

    # within a signature bucket everything must be mutually related (this
    # also gives reflexivity, symmetry, and transitivity on related pairs);
    # big buckets get representative-vs-all coverage plus a random sample
    for group in buckets.values():
        if len(group) <= 12:
            pairs = [(i, j) for i in group for j in group]
        else:
            rep = group[0]
            pairs = [(rep, i) for i in group] + [(i, rep) for i in group]
            pairs += [(rng.choice(group), rng.choice(group)) for _ in range(100)]
        related = 0
        for i, j in pairs:
            h1, h2 = hs[i], hs[j]
            if not hist_indist(ets, h1, h2, coalition):
                report.failures.append(
                    f"{label}: {h1} !~ {h2} despite equal signatures "
                    f"(coalition {set(coalition)})")
            elif length:
                related += 1
                if not (prefixes(parent[i], parent[j])
                        and profiles(h1.profiles[-1], h2.profiles[-1])
                        and heads(h1.states[-1], h2.states[-1])):
                    report.failures.append(
                        f"{label}: decomposition fails for {h1} ~ {h2}")
        report.relation_checks += len(pairs) + related
    # across buckets nothing may be related; adjacent representatives
    # exhaustively, plus a random sample of cross pairs
    reps = [group[0] for group in buckets.values()]
    pairs = list(zip(reps, reps[1:]))
    if len(reps) > 1:
        pairs += [rng.sample(reps, 2) for _ in range(min(200, 4 * len(hs)))]
    report.relation_checks += len(pairs)
    for i, j in pairs:
        if hist_indist(ets, hs[i], hs[j], coalition):
            report.failures.append(
                f"{label}: {hs[i]} ~ {hs[j]} across different signatures")


def lemma_suite(params: GenParams, num_systems: int = 5,
                extra_systems: tuple[EpistemicTransitionSystem, ...] = ()
                ) -> LemmaReport:
    """Equivalence, length, and decomposition lemmas plus derived semantic laws."""
    if num_systems < 0:
        raise GenParamsError("system count must be non-negative")
    report = LemmaReport(params)
    systems = list(extra_systems)
    for i in range(num_systems):
        systems.append(gen_system(replace(params, seed=params.seed * 7_368_787 + i)))
    for index, ets in enumerate(systems):
        report.systems += 1
        rng = _rng(params, "lemma", index)
        states = sorted(ets.states)
        profiles = ets.complete_profiles

        for coalition in _coalitions(ets.agents, include_empty=True):
            def srel(w1, w2, c=coalition):
                report.relation_checks += 1
                return state_indist(ets, w1, w2, c)

            def prel(s1, s2, c=coalition):
                report.relation_checks += 1
                return profile_agrees(s1, s2, c)

            for problem in check_equivalence(states, srel):
                report.failures.append(f"state relation {set(coalition)}: {problem}")
            for problem in check_equivalence(profiles, prel):
                report.failures.append(f"profile relation {set(coalition)}: {problem}")

        for coalition in _coalitions(ets.agents, include_empty=False):
            for length in range(params.history_depth + 1):
                _check_history_relation(ets, coalition, length, rng, report,
                                        f"system {index}")
            # nonempty coalitions never relate histories of different lengths
            h_short = histories_of_length(ets, 0)[0]
            for length in range(1, params.history_depth + 1):
                h_long = histories_of_length(ets, length)[0]
                report.relation_checks += 1
                if hist_indist(ets, h_short, h_long, coalition):
                    report.failures.append(
                        f"system {index}: related histories of lengths 0 and {length}")

        # the empty coalition relates histories of any two lengths
        h0 = histories_of_length(ets, 0)[0]
        h1 = histories_of_length(ets, 1)[0]
        report.relation_checks += 1
        if not hist_indist(ets, h0, h1, frozenset()):
            report.failures.append(
                f"system {index}: empty coalition distinguished two histories")

        _check_semantic_laws(ets, rng, params, report, f"system {index}")
    return report


def _check_semantic_laws(ets, rng, params, report, label):
    """Derived laws of the modalities, exact (nonempty coalitions only)."""
    agents = tuple(sorted(ets.agents))
    props = tuple(sorted(ets.valuation) or ("p",))
    pool = [h for n in range(min(2, params.history_depth) + 1)
            for h in histories_of_length(ets, n)]

    def formula():
        return _gen_formula(rng, rng.randint(0, 1), props, agents, False)

    def nonempty_subset(coalition: Coalition) -> Coalition:
        kept = frozenset(a for a in sorted(coalition) if rng.random() < 0.5)
        return kept or frozenset({min(coalition)})

    for _ in range(10):
        x, y = formula(), formula()
        c = gen_coalition(rng, agents)
        d = gen_coalition(rng, agents)
        sub = nonempty_subset(c)
        h = rng.choice(pool)
        laws = [
            ("strategic positive introspection",
             Implies(How(c, x), Know(c, How(c, x)))),
            ("strategic negative introspection",
             Implies(Not(How(c, x)), Know(c, Not(How(c, x))))),
            ("know-how widens to supersets",
             Implies(How(sub, x), How(c, x))),
            ("perfect recall",
             Implies(How(sub, x), How(sub, Know(c, x)))),
        ]
        if not c & d:
            laws.append(("cooperation",
                         Implies(How(c, Implies(x, y)),
                                 Implies(How(d, x), How(c | d, y)))))
        for name, law in laws:
            report.property_checks += 1
            if not _evaluate_confirmed(ets, h, law).value:
                report.failures.append(f"{label}: {name} fails: {law} at ({h})")
