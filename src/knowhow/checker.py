"""Satisfaction checking at histories, with witness strategy extraction.

Two implementations of the same satisfaction relation live here.

``evaluate`` memoizes verdicts on (history, subformula) pairs and takes each
nonempty coalition's indistinguishability classes from the system
(:func:`knowhow.system.indist_class`), which builds each class once, on
demand, from the class of its prefix, and keeps it for every later call on
the same system.  One strategy search serves ``evaluate`` and ``witness``:
it groups the cached extensions of the class's histories by the
coalition's votes, ``H{C}`` holds exactly when some profile's group forces
the body, and ``witness`` returns that profile.  ``evaluate_naive`` is a
deliberately independent, unmemoized transcription of the relation used as
an oracle: it quantifies by literally enumerating histories and filtering
with ``hist_indist``, and never touches the classes (nor does the harness's
history signature).  The two must agree everywhere; the harness
cross-checks them.

Empty-coalition modalities quantify over histories of every length, which is
not enumerable, so both implementations cap the enumeration at a caller
supplied horizon.  ``evaluate`` walks the levels once per (body, minimum
length) and keeps the first history that refutes the body, or None when the
walk ran out of horizon; a verdict is flagged ``bounded`` when some walk did.
The top-level counterexample is read from that memo.  Refutations are exact.
These walks are the only part of ``evaluate`` that builds whole history
levels.
"""
from __future__ import annotations

from dataclasses import dataclass

from .formula import (
    Atom, Coalition, Falsum, Formula, How, Implies, Know, Not,
    h_depth, uses_empty_coalition,
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
    top-level formula is an empty-coalition K or H that came out False.
    """

    value: bool
    bounded: bool = False
    horizon_used: int = 0
    counterexample: History | None = None

    def __bool__(self) -> bool:
        return self.value


@dataclass(frozen=True)
class Witness:
    """Strategy profile validating a know-how claim."""

    profile: Profile


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
        """Record ``value`` for ``f`` at every history of ``cls``.

        A nonempty-coalition ``K`` or ``H`` quantifies over the class of the
        history it is evaluated at, so it has one value on the whole class,
        and each class is scanned once per formula.
        """
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
        for n in range(min_length, self.horizon + 1):
            for g in histories_of_length(self.ets, n):
                if not self.sat(g, body):
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
    value = ev.sat(h, f)
    counterexample = None
    if isinstance(f, (Know, How)) and not f.coalition:
        counterexample = ev.refutation(f.sub, 1 if isinstance(f, How) else 0)
    return Verdict(value, bounded=ev.bounded, horizon_used=used,
                   counterexample=counterexample)


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
            for n in range(0, horizon + 1):
                for g in histories_of_length(ets, n):
                    if not _naive_sat(ets, g, f.sub, horizon, flag):
                        return False
            flag.append("truncated")
            return True
        for g in histories_of_length(ets, h.length):
            if hist_indist(ets, h, g, f.coalition):
                if not _naive_sat(ets, g, f.sub, horizon, flag):
                    return False
        return True
    if isinstance(f, How):
        if not f.coalition:
            for n in range(1, horizon + 1):
                for g in histories_of_length(ets, n):
                    if not _naive_sat(ets, g, f.sub, horizon, flag):
                        return False
            flag.append("truncated")
            return True
        for strategy in ets.profiles_over(f.coalition):
            achieved = True
            for g in histories_of_length(ets, h.length):
                if not hist_indist(ets, h, g, f.coalition):
                    continue
                for full_profile, w in ets.successors(g.head):
                    if profile_agrees(full_profile, strategy, f.coalition):
                        if not _naive_sat(ets, g.extend(full_profile, w),
                                          f.sub, horizon, flag):
                            achieved = False
                            break
                if not achieved:
                    break
            if achieved:
                return True
        return False
    raise TypeError(f"not a formula: {f!r}")


def evaluate_naive(ets: EpistemicTransitionSystem, h: History, f: Formula,
                   horizon: int | None = None) -> Verdict:
    """Same contract as :func:`evaluate`, by plain enumeration; the oracle."""
    used = _check_preconditions(ets, h, f, horizon)
    flag: list[str] = []
    value = _naive_sat(ets, h, f, used, flag)
    counterexample = None
    if isinstance(f, (Know, How)) and not f.coalition and not value:
        start = 1 if isinstance(f, How) else 0
        for n in range(start, used + 1):
            for g in histories_of_length(ets, n):
                if not _naive_sat(ets, g, f.sub, used, flag):
                    counterexample = g
                    break
            if counterexample is not None:
                break
    return Verdict(value, bounded=bool(flag), horizon_used=used,
                   counterexample=counterexample)


def witness(ets: EpistemicTransitionSystem, h: History, coalition: Coalition,
            body: Formula, horizon: int | None = None) -> Witness | None:
    """First strategy profile (agents and choices in sorted order) that
    makes the know-how clause succeed, or None when none does."""
    used = _check_preconditions(ets, h, How(coalition, body), horizon)
    found = _Evaluator(ets, used).strategy(h, coalition, body)
    return None if found is None else Witness(found)


def check_claim(ets: EpistemicTransitionSystem, h: History, f: Formula,
                expected: bool, horizon: int | None = None) -> ClaimResult:
    """Evaluate and compare against an expected truth value."""
    return ClaimResult(h, f, expected, evaluate(ets, h, f, horizon))
