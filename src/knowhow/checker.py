"""Satisfaction checking at histories; a know-how verdict carries its witness.

Two implementations of the same satisfaction relation live here.

``evaluate`` memoizes verdicts on (history, subformula) pairs and takes each
nonempty coalition's indistinguishability classes from the system
(:func:`knowhow.system.indist_class`), built once each, on demand, from the
class of the prefix.  One strategy search decides ``H{C}``: it groups the
class's cached extensions by the coalition's votes and looks for a profile
whose group forces the body.  For a top-level ``H{C}`` that profile is the
verdict's ``strategy``, the know-how witness; ``witness`` is ``evaluate`` on
an ``H{C}`` goal.  ``evaluate_naive`` is a deliberately independent,
unmemoized transcription of the relation used as an oracle: it enumerates
histories and filters with ``hist_indist``, tries profiles in the same order,
and never touches the classes (nor does the harness's history signature).
The two must agree everywhere, witness included; the harness cross-checks.

Empty-coalition modalities quantify over histories of every length, so both
implementations cap the enumeration at a caller supplied horizon.
``evaluate`` walks the levels once per (body, minimum length), keeping the
first refuting history, or None when the walk ran out of horizon and the
verdict is ``bounded``; the top-level counterexample is read from that memo.
Refutations are exact.  Only these walks build whole history levels.
Formulas built in code past ``MAX_NESTING`` raise ``NestingError`` up front.
"""
from __future__ import annotations

from dataclasses import dataclass

from .formula import (
    MAX_NESTING, Atom, Coalition, Falsum, Formula, How, Implies, Know,
    NestingError, Not, h_depth, nesting, uses_empty_coalition,
)
from .system import (
    EpistemicTransitionSystem, History, Profile, extensions,
    histories_of_length, hist_indist, indist_class, profile_agrees,
    validate_history,
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


class _Evaluator:
    """Memoizing evaluator; one instance per top-level evaluate call."""

    def __init__(self, ets: EpistemicTransitionSystem, horizon: int):
        self.ets = ets
        self.horizon = horizon
        self.memo: dict[Formula, dict[History, bool]] = {}
        self.refutations: dict[tuple[Formula, int], History | None] = {}
        self.bounded = False

    def sat(self, h: History, f: Formula) -> bool:
        table = self.memo.get(f)
        if table is None:
            table = self.memo[f] = {}
        cached = table.get(h)
        if cached is not None:
            return cached
        result = self._sat(h, f)
        table[h] = result
        return result

    def _sat(self, h: History, f: Formula) -> bool:
        if isinstance(f, Falsum):
            return False
        if isinstance(f, Atom):
            return self.ets.holds(f.name, h.head)
        if isinstance(f, Not):
            return not self.sat(h, f.sub)
        if isinstance(f, Implies):
            return not self.sat(h, f.left) or self.sat(h, f.right)
        if isinstance(f, Know):
            if not f.coalition:
                return self.refutation(f.sub, 0) is None
            cls = indist_class(self.ets, h, f.coalition)
            return self.share(f, cls, all(self.sat(g, f.sub) for g in cls))
        if isinstance(f, How):
            if not f.coalition:
                return self.refutation(f.sub, 1) is None
            return self.share(f, indist_class(self.ets, h, f.coalition),
                              self.strategy(h, f.coalition, f.sub) is not None)
        raise TypeError(f"not a formula: {f!r}")

    def share(self, f: Formula, cls: tuple[History, ...], value: bool) -> bool:
        """Record ``value`` for ``f`` at every history of ``cls``: a
        nonempty-coalition ``K`` or ``H`` has one value on the whole class."""
        table = self.memo[f]
        for g in cls:
            table[g] = value
        return value

    def strategy(self, h: History, coalition: Coalition,
                 body: Formula) -> Profile | None:
        """First profile of ``profiles_over(coalition)`` that forces ``body``
        from every history of ``h``'s class, or None; for the empty
        coalition, the empty profile exactly when ``H{} body`` holds."""
        if not coalition:
            return Profile(()) if self.refutation(body, 1) is None else None
        ets = self.ets
        votes = ets.votes_of(coalition)
        # the class's successors, grouped by the coalition's votes
        forced: dict[tuple, list[History]] = {}
        for g in indist_class(ets, h, coalition):
            for ext in extensions(ets, g):
                forced.setdefault(votes[ext.profiles[-1]], []).append(ext)
        for s in ets.profiles_over(coalition):
            if all(self.sat(ext, body) for ext in forced.get(s.votes, ())):
                return s
        return None

    def refutation(self, body: Formula, min_length: int) -> History | None:
        """Memoized :meth:`find_counterexample`; None marks the verdict bounded.

        ``K{}`` (``min_length`` 0) and ``H{}`` (1) have one value at every
        history, so each pair walks the levels once per evaluation.
        """
        key = (body, min_length)
        if key in self.refutations:
            return self.refutations[key]
        found = self.refutations[key] = self.find_counterexample(body, min_length)
        if found is None:
            self.bounded = True  # exhausted the cap without a refutation
        return found

    def find_counterexample(self, body: Formula, min_length: int) -> History | None:
        levels = range(min_length, self.horizon + 1)
        return next((g for n in levels for g in histories_of_length(self.ets, n)
                     if not self.sat(g, body)), None)


def evaluate(ets: EpistemicTransitionSystem, h: History, f: Formula,
             horizon: int | None = None) -> Verdict:
    """Decide whether ``f`` holds at history ``h``.

    ``horizon`` is required (and must cover the history plus the formula's
    know-how nesting) exactly when the formula mentions an empty coalition;
    it is ignored otherwise and the verdict is horizon-independent.
    """
    used = _check_preconditions(ets, h, f, horizon)
    ev = _Evaluator(ets, used)
    if isinstance(f, How):
        strategy = ev.strategy(h, f.coalition, f.sub)
        value = strategy is not None
    else:
        strategy, value = None, ev.sat(h, f)
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
