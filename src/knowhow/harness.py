"""Random regular systems and formulas, plus executable property suites.

The soundness suite instantiates each axiom schema with random formulas and
coalitions (side conditions respected), evaluates the instances at histories
of generated systems, and double-checks any would-be counterexample with the
naive oracle so a checker bug cannot masquerade as a logic violation.  The
lemma suite checks, on every pair, each coalition's state and profile
relations against equality of independent keys (members' block ids and
votes), so each is the intended equivalence; the history relation against
independent signatures, with its length and decomposition properties; and
the derived semantic laws of the modalities.  Both are deterministic in
the seed.

The history-relation check is the lemma suite's main cost.  Its pair set is
fixed by the seed: per level and coalition, all pairs inside small
signature buckets, representative pairs and a sample inside big ones, and a
capped sample across buckets, so O(level size) pairs.  Every history of
a level is named by its index, and each agent's part of every history's
signature is an int that numbers (its parent's int, its head's block, the
agent's last vote) on the level.  Each part is built once per level and
shared by every coalition that contains the agent; a signature is the
tuple of the members' ints.  Each pair is one ``hist_indist`` call of
O(length x |C|) lookups, so the signatures only choose the pairs and
never answer one; a history paired with itself is asked too.  Past
length 0 a related pair is checked again on its decomposition, read from
int tables: each history's parent, last profile and head, built once per
level, and whether two complete profiles agree and two states are
indistinguishable, built once per coalition.  A prefix pair is keyed by
one int and decided by ``hist_indist`` once per distinct pair per level
and coalition, however many related pairs share it.  A sampled pair
across buckets is drawn by cheaper ``rng.randrange`` calls that replay
``rng.sample(reps, 2)`` draw for draw, so the seed picks the same pairs
as when the suite called ``sample``.
"""
from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field, replace

from .formula import (
    Atom, Coalition, Falsum, Formula, How, Implies, InputError, Know, Not,
    format_coalition, h_depth, uses_empty_coalition,
)
from .system import (
    EpistemicTransitionSystem, History, check_profile_count, histories_of_length,
    hist_indist, profile_agrees, state_indist, _profiles,
)
from .checker import Verdict, evaluate, evaluate_naive
from .proofkit import AxiomName, match_axiom


class GenParamsError(InputError):
    """Generator parameters that describe no system or no history."""


@dataclass
class GenParams:
    """Knobs for the generators; deterministic given ``seed``.

    ``formula_depth`` bounds :func:`gen_formula` alone.  No knob sets a horizon:
    an empty-coalition instance is checked at its floor plus a drawn 0/1 slack.
    """

    seed: int = 0
    num_states: int = 4
    num_agents: int = 2
    num_choices: int = 2
    branching: float = 1.2  # expected successors per (state, profile)
    formula_depth: int = 2
    history_depth: int = 3

    def __post_init__(self):
        if self.num_states < 1 or self.num_agents < 1 or self.num_choices < 1:
            raise GenParamsError("need at least one state, agent, and choice")
        if self.history_depth < 0 or self.formula_depth < 0:
            raise GenParamsError("history and formula depth must be non-negative")
        if self.branching < 1.0:
            raise GenParamsError("branching below 1 would break regularity")
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
    # listed in declared agent order, which the draws below depend on; each
    # profile's votes are sorted, so ``a10`` comes before ``a2``
    profiles = tuple(_profiles(agents, [choices] * len(agents)))
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


#: Most histories of length <= ``history_depth`` a suite lists per system.  On
#: a 2-vCPU Xeon VM (Python 3.11), the soundness suite took 0.07 s on one
#: system with 44k (depth 4, three agents, one instance per schema), where
#: ``MAX_LEMMA_PAIRS`` refuses the lemma suite; CLI defaults stay under 2k,
#: the tests under 6.4k (``fuzz --choices 3``).
MAX_HISTORIES = 100_000


def _check_history_count(ets: EpistemicTransitionSystem, depth: int) -> int:
    """The number of histories of ``ets`` of length <= ``depth``; refuse
    ``ets`` if it has over ``MAX_HISTORIES`` of them.

    Counted per length from the states' moves, building no history; every
    length adds at least one, so the loop ends within ``MAX_HISTORIES`` steps.
    """
    starting = dict.fromkeys(ets.states, 1)  # histories of one length, by first state
    total = 0
    for _ in range(depth + 1):
        total += sum(starting.values())
        if total > MAX_HISTORIES:
            raise GenParamsError(f"a generated system has more than {MAX_HISTORIES} "
                                 f"histories of length at most {depth}")
        starting = {w: sum(starting[w2] for _, w2 in ets.successors(w)) for w in ets.states}
    return total


#: Most pairs the lemma suite checks per system: its histories of length
#: <= ``history_depth`` times its nonempty coalitions, since it checks every
#: level once per nonempty coalition, plus its coalitions times the pairs of
#: states and of complete profiles whose relations it compares with their
#: keys.  On a 2-vCPU Xeon VM (Python 3.11), ``fuzz --systems 1 --instances
#: 1`` took 2.7-3.4 s at 291,567 (``--seed 1``, three agents, three states,
#: depth 4), 0.2 s at 262,271 (six agents on one state, depth 0) and 0.5 s at
#: 247,781 (200 states); four agents at the defaults make 348k-634k and seven
#: on one state 2.1M.  CLI defaults stay under 3.5k.
MAX_LEMMA_PAIRS = 300_000


def _check_lemma_pairs(ets: EpistemicTransitionSystem, depth: int) -> None:
    """Refuse ``ets`` if the lemma suite would check more than
    ``MAX_LEMMA_PAIRS`` pairs on it, counted before any level is listed."""
    histories = _check_history_count(ets, depth)
    coalitions = 1 << len(ets.agents)
    states, profiles = len(ets.states), len(ets.complete_profiles)
    pairs = histories * (coalitions - 1) + coalitions * (states ** 2 + profiles ** 2)
    if pairs > MAX_LEMMA_PAIRS:
        raise GenParamsError(
            f"a generated system makes {pairs} pairs for the lemma suite, more than "
            f"{MAX_LEMMA_PAIRS}: {histories} histories of length at most {depth} times "
            f"{coalitions - 1} nonempty coalitions, plus {coalitions} coalitions times "
            f"({states} states squared + {profiles} complete profiles squared)")


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
                      depth: int) -> Formula:
    """Random instance of the schema, side conditions guaranteed."""

    def sub() -> Formula:
        return _gen_formula(rng, rng.randint(0, depth), props, agents, False)

    def coalition(nonempty=False) -> Coalition:
        return gen_coalition(rng, agents,
                             allow_empty=not nonempty and rng.random() < 0.2)

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
        out = {
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
        # a clean report keeps its bytes; a rejection fails the run, so it says why
        if self.guard_rejections:
            out["guard_rejections"] = [
                {"system_seed": g.system_seed, "schema": g.schema.value,
                 "formula": str(g.formula)}
                for g in self.guard_rejections]
        return out

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
                   instance: Formula, h: History, slack: int = 0,
                   system_seed: int = 0) -> InstanceCheck:
    """Guard the instance through the schema matcher, then evaluate it.

    An empty-coalition instance is evaluated at its floor, ``h.length +
    h_depth(instance)``, plus ``slack``.  A False verdict is only recorded as a
    violation after the independent naive evaluator confirms it.
    """
    if schema not in match_axiom(instance):
        return InstanceCheck(system_seed, schema, instance, h, "guard_rejected", False)
    horizon = None
    if uses_empty_coalition(instance):
        horizon = h.length + h_depth(instance) + slack
    verdict = _evaluate_confirmed(ets, h, instance, horizon)
    status = "ok" if verdict.value else "violation"
    return InstanceCheck(system_seed, schema, instance, h, status, verdict.bounded)


def soundness_suite(params: GenParams, num_systems: int = 10,
                    num_instances: int = 5) -> SoundnessReport:
    """Fuzz every axiom schema: ``num_instances`` instances per schema per system.

    An empty-coalition instance lists whole history levels, so it is anchored
    at length 0 or 1 and checked at its floor plus a drawn 0/1 slack.
    """
    if num_systems < 0 or num_instances < 0:
        raise GenParamsError("system and instance counts must be non-negative")
    report = SoundnessReport(params)
    for i in range(num_systems):
        sys_params = replace(params, seed=params.seed * 1_000_003 + i)
        ets = gen_system(sys_params)
        _check_history_count(ets, params.history_depth)
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
                if uses_empty_coalition(instance):
                    anchor = rng.choice(short_pool)
                    slack = 1 if rng.random() < 0.3 else 0
                else:
                    anchor, slack = rng.choice(pool), 0
                result = check_instance(ets, schema, instance, anchor,
                                        slack, sys_params.seed)
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


def _coalitions(agents: frozenset[str], include_empty: bool):
    members = sorted(agents)
    out = []
    for mask in range(0 if include_empty else 1, 1 << len(members)):
        out.append(frozenset(m for i, m in enumerate(members) if mask >> i & 1))
    return out


def _level_table(ets, length: int, columns: dict) -> tuple[list, list, list]:
    """Each history's parent, last profile and head on one level, as ints.

    The parent indexes the level below, the last profile
    ``ets.complete_profiles`` and the head the sorted states; length 0 has
    no parents and no profiles.  A level lists each parent's extensions in
    successor order, so the parents and last profiles are read off the
    parents' moves.
    ``columns`` keeps the table under the length for every coalition.
    """
    table = columns.get(length)
    if table is None:
        hs = histories_of_length(ets, length)
        state_index = {w: i for i, w in enumerate(sorted(ets.states))}
        parent, last = [], []
        if length:
            # each state's moves as profile indices, keyed by votes, so no
            # history's profile is hashed
            profile_index = {s.votes: i for i, s in enumerate(ets.complete_profiles)}
            moves = {w: [profile_index[s.votes] for s, _ in ets.successors(w)]
                     for w in ets.states}
            below = [moves[g.head] for g in histories_of_length(ets, length - 1)]
            parent = [p for p, m in enumerate(below) for _ in m]
            last = [i for m in below for i in m]
        table = columns[length] = (parent, last, [state_index[h.states[-1]] for h in hs])
    return table


def _block_ids(ets, agent: str) -> list[int]:
    """The agent's block of each state, by state index, read from ``ets.indist``."""
    block = {w: i for i, b in enumerate(ets.indist[agent]) for w in b}
    return [block[w] for w in sorted(ets.states)]


def _relation_tables(ets, coalition: Coalition, columns: dict) -> tuple[list, list]:
    """Whether each two complete profiles agree and each two states (by
    index) are indistinguishable for ``coalition``, asked once per pair and
    kept in ``columns`` for the key and decomposition checks."""
    tables = columns.get(coalition)
    if tables is None:
        profiles, states = ets.complete_profiles, sorted(ets.states)
        tables = columns[coalition] = (
            [[profile_agrees(s1, s2, coalition) for s2 in profiles] for s1 in profiles],
            [[state_indist(ets, w1, w2, coalition) for w2 in states] for w1 in states])
    return tables


def _check_relation_keys(ets, coalition: Coalition, report: LemmaReport,
                         columns: dict) -> None:
    """Check the state and profile relations of ``coalition`` on every pair.

    ``state_indist`` must be equality of the members' blocks
    (:func:`_block_ids`) and ``profile_agrees`` equality of the members'
    votes read from ``Profile.votes``.  Agreeing with equality of a key
    makes a relation reflexive, symmetric and transitive, and the intended one.
    """
    agree, indist = _relation_tables(ets, coalition, columns)
    states, profiles = sorted(ets.states), ets.complete_profiles
    blocks = [_block_ids(ets, a) for a in sorted(coalition)]
    state_keys = [tuple(column[i] for column in blocks) for i in range(len(states))]
    profile_keys = [tuple(v for v in s.votes if v[0] in coalition) for s in profiles]
    for kind, items, keys, table, key_name in (
            ("state", states, state_keys, indist, "blocks"),
            ("profile", profiles, profile_keys, agree, "votes")):
        report.relation_checks += len(items) ** 2
        for x, key, row in zip(items, keys, table):
            for y, other, related in zip(items, keys, row):
                if related == (key == other):
                    continue
                if x is y:
                    problem = f"not reflexive at {x}"
                elif related:
                    problem = f"{x} ~ {y} across different {key_name}"
                else:
                    problem = f"{x} !~ {y} despite equal {key_name}"
                report.failures.append(
                    f"{kind} relation {format_coalition(coalition)}: {problem}")


def _signature_column(ets, agent: str, length: int, columns: dict) -> list[int]:
    """One agent's part of every history's signature on one level, as ints.

    An independent unfolding of per-agent indistinguishability: the block
    ids of the visited states, read from the declared partition
    ``ets.indist``, plus the agent's own votes.  A history's int numbers the
    triple (its parent's int, its head's block, the agent's last vote) on
    its level, in the order the triples first appear, and a history of
    length 0 numbers its state's block.  So by induction two histories of a
    level get equal ints iff their block and vote sequences are equal.
    ``columns`` keeps each (agent, level) column for every coalition that
    contains the agent.
    """
    column = columns.get((agent, length))
    if column is None:
        blocks = _block_ids(ets, agent)
        parent, last, head = _level_table(ets, length, columns)
        keys = map(blocks.__getitem__, head)
        if length:
            below = _signature_column(ets, agent, length - 1, columns)
            votes = [s[agent] for s in ets.complete_profiles]  # by profile index
            keys = zip(map(below.__getitem__, parent), keys, map(votes.__getitem__, last))
        numbers: dict = {}
        column = columns[agent, length] = [numbers.setdefault(k, len(numbers)) for k in keys]
    return column


def _sample_two(rng: random.Random, population: list) -> tuple:
    """``tuple(rng.sample(population, 2))``, drawn by ``rng.randrange`` alone.

    It makes the draws ``sample`` makes, in the same order, so it returns
    the same pair and leaves ``rng`` in the same state, in a third to a
    half of the time (Python 3.11).  For up to 21 items CPython's
    ``sample`` picks from a pool: the second index is drawn below n - 1
    and stands for the last item when it equals the first.  Past 21 it
    redraws below n until the index differs.
    """
    n = len(population)
    first = rng.randrange(n)
    if n <= 21:
        second = rng.randrange(n - 1)
        if second == first:
            second = n - 1
    else:
        second = rng.randrange(n)
        while second == first:
            second = rng.randrange(n)
    return population[first], population[second]


def _check_history_relation(ets, coalition: Coalition, length: int,
                            rng: random.Random, report: LemmaReport,
                            label: str, columns: dict) -> None:
    """Check ``hist_indist`` for ``coalition`` on one level against the signatures.

    A history's signature is the tuple of its sorted members' ints (a bare
    int for one member), taken from the per-agent ``columns`` of
    :func:`_signature_column`.  The pairs, and the draws they take from
    ``rng``, depend only on the level and its signature buckets, so
    ``relation_checks`` counts the same pairs however cheap each check is.
    A bucket of b histories gives b^2 pairs when b <= 12 and 2b + 100
    otherwise, 100 of them drawn by ``rng.choice``; past length 0 a
    related pair is checked again on its decomposition.  Across buckets
    there are at most 200 + (number of buckets) pairs, the sampled ones
    drawn by :func:`_sample_two`, which replays ``rng.sample``.

    The decomposition reads int tables: each history's parent, last profile
    and head from :func:`_level_table`, and whether each two complete
    profiles agree and each two states are indistinguishable from
    :func:`_relation_tables`.  A prefix pair is keyed by one int and
    decided by ``hist_indist`` when a related pair first needs it, once per
    distinct pair of parents.
    """
    hs = histories_of_length(ets, length)
    # histories are named by their index in the level
    members = sorted(coalition)
    if len(members) == 1:
        signatures = _signature_column(ets, members[0], length, columns)
    else:
        signatures = zip(*[_signature_column(ets, a, length, columns) for a in members])
    buckets: dict = {}
    for i, signature in enumerate(signatures):
        buckets.setdefault(signature, []).append(i)

    # within a signature bucket everything must be mutually related (this
    # also gives reflexivity, symmetry, and transitivity on related pairs);
    # big buckets get representative-vs-all coverage plus a random sample.
    # Each row pairs one history with a run of others.
    rows: list = []
    checks = 0
    for group in buckets.values():
        size = len(group)
        if size <= 12:
            rows += [(i, group) for i in group]
            checks += size * size
        else:
            rep = group[0]
            rows.append((rep, group))
            rows += [(i, (rep,)) for i in group]
            rows += [(rng.choice(group), (rng.choice(group),)) for _ in range(100)]
            checks += 2 * size + 100

    # the module's relation, read once per call, so a patched one is checked
    relation = hist_indist
    failures = report.failures
    despite = f"despite equal signatures (coalition {format_coalition(coalition)})"
    if not length:
        for i, others in rows:
            h1 = hs[i]
            for j in others:
                if not relation(ets, h1, hs[j], coalition):
                    failures.append(f"{label}: {h1} !~ {hs[j]} {despite}")
    else:
        # decomposition: a related pair of extended histories has a related
        # prefix pair, last profiles that agree and indistinct heads
        prev = histories_of_length(ets, length - 1)
        parent, last, head = _level_table(ets, length, columns)
        agree, indist = _relation_tables(ets, coalition, columns)
        width = len(prev)
        prefixes: dict = {}  # parent pair (p1, p2) as p1 * width + p2
        for i, others in rows:
            h1, p1 = hs[i], parent[i]
            row, agree1, indist1 = p1 * width, agree[last[i]], indist[head[i]]
            for j in others:
                h2 = hs[j]
                if not relation(ets, h1, h2, coalition):
                    failures.append(f"{label}: {h1} !~ {h2} {despite}")
                    continue
                checks += 1
                p2 = parent[j]
                prefix = prefixes.get(row + p2)
                if prefix is None:
                    prefix = prefixes[row + p2] = relation(ets, prev[p1], prev[p2],
                                                           coalition)
                if not (prefix and agree1[last[j]] and indist1[head[j]]):
                    failures.append(f"{label}: decomposition fails for {h1} ~ {h2}")
    # across buckets nothing may be related; adjacent representatives
    # exhaustively, plus a random sample of cross pairs
    reps = [group[0] for group in buckets.values()]
    pairs = list(zip(reps, reps[1:]))
    if len(reps) > 1:
        pairs += [_sample_two(rng, reps) for _ in range(min(200, 4 * len(hs)))]
    report.relation_checks += checks + len(pairs)
    for i, j in pairs:
        if relation(ets, hs[i], hs[j], coalition):
            failures.append(
                f"{label}: {hs[i]} ~ {hs[j]} across different signatures")


def lemma_suite(params: GenParams, num_systems: int = 5,
                extra_systems: tuple[EpistemicTransitionSystem, ...] = ()
                ) -> LemmaReport:
    """Relation, length, and decomposition lemmas plus derived semantic laws.

    Each system is refused past ``MAX_LEMMA_PAIRS`` before any check; then
    every coalition's state and profile relations meet their keys, and
    every nonempty coalition's history relation its signatures.
    """
    if num_systems < 0:
        raise GenParamsError("system count must be non-negative")
    report = LemmaReport(params)
    systems = list(extra_systems)
    for i in range(num_systems):
        systems.append(gen_system(replace(params, seed=params.seed * 7_368_787 + i)))
    for index, ets in enumerate(systems):
        _check_lemma_pairs(ets, params.history_depth)
        report.systems += 1
        rng = _rng(params, "lemma", index)
        # each agent's signature column per level, each level's index table
        # and each coalition's profile and state tables, shared by the checks
        columns: dict = {}
        for coalition in _coalitions(ets.agents, include_empty=True):
            _check_relation_keys(ets, coalition, report, columns)
        for coalition in _coalitions(ets.agents, include_empty=False):
            for length in range(params.history_depth + 1):
                _check_history_relation(ets, coalition, length, rng, report,
                                        f"system {index}", columns)
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
