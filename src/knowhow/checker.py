"""Satisfaction checking at histories; a know-how verdict carries its witness.

Two implementations of the same satisfaction relation live here.

``evaluate`` decides formulas on knowledge types.  Under perfect recall,
``g'.extend(s', w') ~C g.extend(s, w)`` iff ``g' ~C g``, ``s'`` and ``s``
agree on C, and ``w' ~C w`` (the decomposition lemma), so what a history's
classes can tell a formula folds step by step along the history, as in van
der Meyden's k-trees.  The ``f``-type of a history is its head together
with, for each nonempty-coalition node ``M{C} x`` that ``f`` reaches through
``!`` and ``->`` only, the ``x``-types of the histories C cannot tell from
it (see ``_Types``).  ``K{C} x`` holds when ``x`` holds at every member
type.  One strategy search decides ``H{C} x``: it groups the members'
successor types by the coalition's votes and looks for a profile whose
group forces ``x``.  For a top-level ``H{C}`` that profile is the verdict's
``strategy``, the know-how witness; ``witness`` is ``evaluate`` on an
``H{C}`` goal.  ``evaluate_naive`` is a deliberately independent,
unmemoized transcription of the relation used as an oracle: it enumerates
histories and filters with ``hist_indist``, and never touches the types
(nor does the harness's history signature).  Both meet histories, and
profiles, in the same order; they must agree everywhere, witness included.

Empty-coalition modalities quantify over histories of every length, so both
implementations cap the enumeration at a caller supplied horizon.
``evaluate`` walks the levels once per (body, minimum length), keeping the
first refuting history, or None when the walk ran out of horizon and the
verdict is ``bounded``; the top-level counterexample is read from that memo.
Refutations are exact.  Formulas built in code past ``MAX_NESTING`` raise
``NestingError`` up front.
"""
from __future__ import annotations

from dataclasses import dataclass

from .formula import (
    MAX_NESTING, Atom, Coalition, Falsum, Formula, How, Implies, Know,
    NestingError, Not, _operands, h_depth, nesting, uses_empty_coalition,
)
from .system import (
    EpistemicTransitionSystem, History, Profile, histories_of_length,
    hist_indist, profile_agrees, validate_history,
)


class HorizonError(ValueError):
    """Horizon missing or too small for a formula with empty coalitions."""


class RegularityError(ValueError):
    """The checker only evaluates over regular systems."""


@dataclass(frozen=True)
class Verdict:
    """Outcome of one evaluation.

    ``bounded`` is False whenever the formula has no empty-coalition
    modality; otherwise it marks that some unbounded quantification was
    truncated at ``horizon_used`` without being refuted, so the verdict could
    change under a larger horizon.  ``counterexample`` is filled in when the
    top-level formula is an empty-coalition K or H that came out False, and
    ``strategy`` when it is an ``H{C}`` that came out True: the first profile
    of ``profiles_over(C)`` that forces the body from every history of the
    class (the know-how witness), or the empty profile for ``H{}``.
    """

    value: bool
    bounded: bool = False
    horizon_used: int = 0
    counterexample: History | None = None
    strategy: Profile | None = None

    def __bool__(self) -> bool:
        return self.value


@dataclass(frozen=True)
class ClaimResult:
    history: History
    formula: Formula
    expected: bool
    verdict: Verdict

    @property
    def passed(self) -> bool:
        return self.verdict.value == self.expected


def _check_preconditions(ets: EpistemicTransitionSystem, h: History,
                         f: Formula, horizon: int | None) -> int:
    validate_history(ets, h)
    if not ets.is_regular:
        raise RegularityError(
            "system is not regular; every state/profile pair needs a successor")
    if nesting(f) > MAX_NESTING:
        raise NestingError(f"formula nests deeper than {MAX_NESTING} levels")
    if uses_empty_coalition(f):
        floor = h.length + h_depth(f)
        if horizon is None:
            raise HorizonError(
                f"formula uses an empty coalition; supply a horizon >= {floor}")
        if horizon < floor:
            raise HorizonError(
                f"horizon {horizon} too small, need at least {floor} "
                f"(history length plus know-how nesting)")
        return horizon
    return 0


class _Types:
    """The knowledge types of one evaluation, interned as ints.

    ``types[t]`` is ``(head, members)``.  An ``f``-type's ``members`` maps
    each node ``M{C} x`` of ``nodes(f)`` to the distinct ``x``-types of the
    histories C cannot tell apart from the typed one, in the level order of
    their first history.  So a type names its own nodes, and every
    subformula that ``f`` reaches through ``!`` and ``->`` is decided on it.
    """

    def __init__(self, ets: EpistemicTransitionSystem):
        self.ets = ets
        self.states = sorted(ets.states)  # the level-0 order
        self.types: list[tuple[str, dict[Formula, tuple[int, ...]]]] = []
        self.ids: dict[tuple, int] = {}
        self.modal: dict[Formula, dict[Formula, None]] = {}
        self.roots: dict[tuple[Formula, str], int] = {}
        self.steps: dict[tuple[int, Profile, str], int] = {}
        self.looks: dict[Coalition, dict[str, tuple[int, ...]]] = {}

    def intern(self, head: str, members: dict[Formula, tuple[int, ...]]) -> int:
        key = (head, tuple(members.items()))
        if key not in self.ids:
            self.ids[key] = len(self.types)
            self.types.append((head, members))
        return self.ids[key]

    def nodes(self, f: Formula) -> dict[Formula, None]:
        """The nonempty-coalition ``K``/``H`` nodes that ``f`` reaches
        through ``!`` and ``->`` only; each node object is visited once."""
        if f not in self.modal:
            found = self.modal[f] = {}
            seen, stack = set(), [f]
            while stack:
                g = stack.pop()
                if id(g) not in seen:
                    seen.add(id(g))
                    if not isinstance(g, (Know, How)):
                        stack += _operands(g)
                    elif g.coalition:
                        found[g] = None
        return self.modal[f]

    def look(self, coalition: Coalition) -> dict[str, tuple[int, ...]]:
        """Each state's blocks for the members: alike to C iff equal."""
        if coalition not in self.looks:
            members = sorted(coalition)
            self.looks[coalition] = {w: tuple(self.ets.block(a, w) for a in members)
                                     for w in self.states}
        return self.looks[coalition]

    def root(self, f: Formula, w: str) -> int:
        """The ``f``-type of the length-0 history ``w``."""
        if (f, w) not in self.roots:
            members = {}
            for node in self.nodes(f):
                look = self.look(node.coalition)
                members[node] = tuple(dict.fromkeys(
                    self.root(node.sub, v) for v in self.states if look[v] == look[w]))
            self.roots[(f, w)] = self.intern(w, members)
        return self.roots[(f, w)]

    def step(self, t: int, s: Profile, w: str) -> int:
        """The type of ``g.extend(s, w)`` for a history ``g`` of type ``t``.

        By the decomposition lemma, the histories C cannot tell apart from
        ``g.extend(s, w)`` are the successors of the members' histories
        whose votes agree with ``s`` on C and whose heads look like ``w``
        to C.
        """
        key = (t, s, w)
        if key not in self.steps:
            members = {}
            for node, old in self.types[t][1].items():
                votes, look = self.ets.votes_of(node.coalition), self.look(node.coalition)
                alike = (votes[s], look[w])
                members[node] = tuple(dict.fromkeys(
                    self.step(m, s2, w2) for m in old
                    for s2, w2 in self.ets.successors(self.types[m][0])
                    if (votes[s2], look[w2]) == alike))
            self.steps[key] = self.intern(w, members)
        return self.steps[key]

    def of(self, f: Formula, h: History) -> int:
        """The ``f``-type of ``h``, folded along its path."""
        t = self.root(f, h.states[0])
        for s, w in zip(h.profiles, h.states[1:]):
            t = self.step(t, s, w)
        return t


class _Evaluator:
    """Memoizing evaluator; one instance per top-level evaluate call."""

    def __init__(self, ets: EpistemicTransitionSystem, horizon: int):
        self.ets = ets
        self.horizon = horizon
        self.types = _Types(ets)
        self.values: dict[tuple[Formula, int], bool] = {}
        self.refutations: dict[tuple[Formula, int], History | None] = {}
        self.bounded = False

    def value(self, f: Formula, t: int) -> bool:
        """Whether ``f`` holds at the histories of type ``t``, a type of
        ``f`` or of a formula that reaches ``f`` through ``!`` and ``->``."""
        if (f, t) not in self.values:
            self.values[(f, t)] = self._value(f, t)
        return self.values[(f, t)]

    def _value(self, f: Formula, t: int) -> bool:
        head, members = self.types.types[t]
        if isinstance(f, Falsum):
            return False
        if isinstance(f, Atom):
            return self.ets.holds(f.name, head)
        if isinstance(f, Not):
            return not self.value(f.sub, t)
        if isinstance(f, Implies):
            return not self.value(f.left, t) or self.value(f.right, t)
        if isinstance(f, Know):
            if not f.coalition:
                return self.refutation(f.sub, 0) is None
            return all(self.value(f.sub, m) for m in members[f])
        if isinstance(f, How):
            return self.strategy(f, members.get(f, ())) is not None
        raise TypeError(f"not a formula: {f!r}")

    def strategy(self, node: How, members: tuple[int, ...]) -> Profile | None:
        """First profile of ``profiles_over(C)`` that forces the body from
        every history of the member types, or None; for the empty
        coalition, the empty profile exactly when ``H{} body`` holds."""
        if not node.coalition:
            return Profile(()) if self.refutation(node.sub, 1) is None else None
        ets, types = self.ets, self.types
        votes = ets.votes_of(node.coalition)
        # the members' successor types, grouped by the coalition's votes
        forced: dict[tuple, dict[int, None]] = {}
        for m in members:
            for s, w in ets.successors(types.types[m][0]):
                forced.setdefault(votes[s], {})[types.step(m, s, w)] = None
        for s in ets.profiles_over(node.coalition):
            if all(self.value(node.sub, t) for t in forced.get(s.votes, ())):
                return s
        return None

    def refutation(self, body: Formula, min_length: int) -> History | None:
        """Memoized :meth:`find_counterexample`; None marks the verdict bounded.

        ``K{}`` (``min_length`` 0) and ``H{}`` (1) have one value at every
        history, so each pair walks the levels once per evaluation.
        """
        key = (body, min_length)
        if key not in self.refutations:
            self.refutations[key] = self.find_counterexample(body, min_length)
            self.bounded |= self.refutations[key] is None
        return self.refutations[key]

    def find_counterexample(self, body: Formula, min_length: int) -> History | None:
        """The first history in level order, of a length from ``min_length``
        to the horizon, where ``body`` fails; None if there is none.

        A level keeps the first history of each body type, and the next
        level steps from those in successor order: a later history of the
        same type has later successors of the same types.
        """
        level: dict[int, History] = {}
        for g in histories_of_length(self.ets, 0):
            level.setdefault(self.types.root(body, g.head), g)
        for n in range(self.horizon + 1):
            if n:
                prev, level = level, {}
                for t, g in prev.items():
                    for s, w in self.ets.successors(g.head):
                        level.setdefault(self.types.step(t, s, w), g.extend(s, w))
            if n >= min_length:
                for t, g in level.items():
                    if not self.value(body, t):
                        return g
        return None


def evaluate(ets: EpistemicTransitionSystem, h: History, f: Formula,
             horizon: int | None = None) -> Verdict:
    """Decide whether ``f`` holds at history ``h``.

    ``horizon`` is required (and must cover the history plus the formula's
    know-how nesting) exactly when the formula mentions an empty coalition;
    it is ignored otherwise and the verdict is horizon-independent.
    """
    used = _check_preconditions(ets, h, f, horizon)
    ev = _Evaluator(ets, used)
    t = ev.types.of(f, h)
    if isinstance(f, How):
        strategy = ev.strategy(f, ev.types.types[t][1].get(f, ()))
        value = strategy is not None
    else:
        strategy, value = None, ev.value(f, t)
    counterexample = None
    if isinstance(f, (Know, How)) and not f.coalition:
        counterexample = ev.refutation(f.sub, 1 if isinstance(f, How) else 0)
    return Verdict(value, bounded=ev.bounded, horizon_used=used,
                   counterexample=counterexample, strategy=strategy)


def _naive_sat(ets, h, f, horizon, flag) -> bool:
    # Literal clause-by-clause transcription; quantifies by enumerating and
    # filtering full history sets, no memoization, no class grouping.
    if isinstance(f, Falsum):
        return False
    if isinstance(f, Atom):
        return h.head in ets.valuation.get(f.name, frozenset())
    if isinstance(f, Not):
        return not _naive_sat(ets, h, f.sub, horizon, flag)
    if isinstance(f, Implies):
        if _naive_sat(ets, h, f.left, horizon, flag):
            return _naive_sat(ets, h, f.right, horizon, flag)
        return True
    if isinstance(f, Know):
        if not f.coalition:
            return _naive_refutation(ets, f.sub, 0, horizon, flag) is None
        for g in histories_of_length(ets, h.length):
            if hist_indist(ets, h, g, f.coalition):
                if not _naive_sat(ets, g, f.sub, horizon, flag):
                    return False
        return True
    if isinstance(f, How):
        return _naive_strategy(ets, h, f.coalition, f.sub, horizon, flag) is not None
    raise TypeError(f"not a formula: {f!r}")


def _naive_refutation(ets, body, min_length, horizon, flag) -> History | None:
    # The first history up to the horizon where body fails, in level order.
    for n in range(min_length, horizon + 1):
        for g in histories_of_length(ets, n):
            if not _naive_sat(ets, g, body, horizon, flag):
                return g
    flag.append("truncated")
    return None


def _naive_strategy(ets, h, coalition, body, horizon, flag) -> Profile | None:
    # The know-how clause, one profile at a time in profiles_over order.
    if not coalition:
        refuted = _naive_refutation(ets, body, 1, horizon, flag)
        return Profile(()) if refuted is None else None
    for strategy in ets.profiles_over(coalition):
        achieved = True
        for g in histories_of_length(ets, h.length):
            if not hist_indist(ets, h, g, coalition):
                continue
            for full_profile, w in ets.successors(g.head):
                if profile_agrees(full_profile, strategy, coalition):
                    if not _naive_sat(ets, g.extend(full_profile, w),
                                      body, horizon, flag):
                        achieved = False
                        break
            if not achieved:
                break
        if achieved:
            return strategy
    return None


def evaluate_naive(ets: EpistemicTransitionSystem, h: History, f: Formula,
                   horizon: int | None = None) -> Verdict:
    """Same contract as :func:`evaluate`, by plain enumeration; the oracle."""
    used = _check_preconditions(ets, h, f, horizon)
    flag: list[str] = []
    if isinstance(f, How):
        strategy = _naive_strategy(ets, h, f.coalition, f.sub, used, flag)
        value = strategy is not None
    else:
        strategy, value = None, _naive_sat(ets, h, f, used, flag)
    counterexample = None
    if isinstance(f, (Know, How)) and not f.coalition and not value:
        start = 1 if isinstance(f, How) else 0
        counterexample = _naive_refutation(ets, f.sub, start, used, flag)
    return Verdict(value, bounded=bool(flag), horizon_used=used,
                   counterexample=counterexample, strategy=strategy)


def witness(ets: EpistemicTransitionSystem, h: History, coalition: Coalition,
            body: Formula, horizon: int | None = None) -> Verdict:
    """The verdict on ``H{coalition} body`` at ``h``; its ``strategy`` is
    the witness profile, or None when the coalition has no way to force the
    body."""
    return evaluate(ets, h, How(coalition, body), horizon)


def check_claim(ets: EpistemicTransitionSystem, h: History, f: Formula,
                expected: bool, horizon: int | None = None) -> ClaimResult:
    """Evaluate and compare against an expected truth value."""
    return ClaimResult(h, f, expected, evaluate(ets, h, f, horizon))
