"""Satisfaction checking at histories; a know-how verdict carries its witness.

Two implementations of the same satisfaction relation live here.

``evaluate`` decides formulas on knowledge types.  Under perfect recall,
``g'.extend(s', w') ~C g.extend(s, w)`` iff ``g' ~C g``, ``s'`` and ``s``
agree on C, and ``w' ~C w`` (the decomposition lemma), so what a history's
classes can tell a formula folds step by step along the history, as in van
der Meyden's k-trees.  The ``f``-type of a history is its head together
with, for each nonempty-coalition node ``M{C} x`` that ``f`` reaches through
``!`` and ``->`` only, the ``x``-types of the histories C cannot tell from
it (see ``_Types``).  They are a sorted set, as a coalition's knowledge is a
set of histories, unless ``x`` reaches a ``K{}``/``H{}``; then they keep the
level order of their first history, since the order members are decided in
picks the walks that run.  ``K{C} x`` holds when ``x`` holds at every member
type.  One strategy search decides ``H{C} x``: it groups the members'
successor types by the coalition's votes and looks for a profile whose
group forces ``x``.  For a top-level ``H{C}`` that profile is the verdict's
``strategy``, the know-how witness; ``witness`` is ``evaluate`` on an
``H{C}`` goal.  ``evaluate_naive`` is a deliberately independent,
unmemoized transcription of the relation used as an oracle: it enumerates
histories and filters with ``hist_indist``, and never touches the types
(nor does the harness's history signature).  Both meet profiles, the
levels of a walk, and the members of a node whose body walks in the same
order; they must agree everywhere, ``bounded`` and witness included.

Types step along indexed moves.  A move of state ``w`` is an index into
``ets.successors(w)``, and ``_Types.step(t, i)`` is memoized in one row per
type.  Once per system and coalition, a ``_View`` numbers what C sees of
each move (the position of its votes by C among C's profiles, and C's look
of its target) and groups each state's moves by that number, in successor
order; so a step visits only the members' moves in the group of its own
move, and compares no profiles.  A view reads only the system, so every
evaluation on that system shares it (``ets._views``).

Empty-coalition modalities quantify over histories of every length, so both
implementations cap the enumeration at a caller supplied horizon.
``evaluate`` walks the levels once per (body, minimum length), keeping the
first refuting history, or None when the walk found none; the top-level
counterexample is read from that memo, and the verdict is ``bounded``
exactly when some entry of it is None.  A level
keeps, per body type, a back-pointer to the first history of that type (its
parent's path and the move), and only the history returned is built.

The walk closes, by van der Meyden's k-tree argument for perfect recall
(Information and Computation, 1998).  Let ``T_n`` be the body types at
level n.  ``T_{n+1}`` is the image of ``T_n`` under ``step``, and images
distribute over unions.  Let ``S`` be the union of ``T_k`` for
``min_length <= k <= n``; if ``T_{n+1}`` lies in ``S``, then so does the
image of ``S``, hence every later level.  Each type of ``S`` was decided
when it first appeared, and a type fixes the body's value whatever the
history's length (an inner ``K{}``/``H{}`` is one constant per evaluation),
so no later level refutes: the walk returns None at the first level at or
past ``min_length`` that brings no undecided type, whatever the horizon.
The verdict is the one the whole walk would give, so ``bounded`` keeps its
meaning.  Refutations are exact.  Formulas built in code past
``MAX_NESTING`` raise ``NestingError`` up front, and a formula that names an
agent the system does not declare raises ``UndeclaredAgentError``; both
evaluators read these, and the horizon floor, from one fold of the formula
(``formula.measures``).  Sets alone do not bound the types: their member
entries grow about fourfold for every two levels of a ``K{C}``/``H{D}``
chain, so ``evaluate`` raises ``TypeBudgetError`` once one evaluation's
types hold more than ``MAX_TYPE_ENTRIES``.  The oracle has no budget.
"""
from __future__ import annotations

from .formula import (
    MAX_NESTING, Atom, Coalition, Falsum, Formula, How, Implies, Know,
    InputError, NestingError, Not, _operands, _Record, measures,
)
from .system import (
    EpistemicTransitionSystem, History, Profile, check_regular,
    histories_of_length, hist_indist, profile_agrees, validate_history,
)


class HorizonError(InputError):
    """Horizon missing or too small for a formula with empty coalitions."""


class RegularityError(InputError):
    """The checker only evaluates over regular systems."""


class UndeclaredAgentError(InputError):
    """The formula names an agent that the system does not declare."""


class TypeBudgetError(InputError):
    """An evaluation's knowledge types outgrew ``MAX_TYPE_ENTRIES``."""


#: Most member entries the knowledge types of one ``evaluate`` call may hold
#: in all.  Perfect-recall model checking is non-elementary in the nesting
#: of knowledge, so deep chains of ``K{C}``/``H{C}`` must stop somewhere.
MAX_TYPE_ENTRIES = 1_000_000


class Verdict(_Record):
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

    __slots__ = ("value", "bounded", "horizon_used", "counterexample", "strategy")

    def __init__(self, value: bool, bounded: bool = False, horizon_used: int = 0,
                 counterexample: History | None = None,
                 strategy: Profile | None = None):
        _set = object.__setattr__
        _set(self, "value", value)
        _set(self, "bounded", bounded)
        _set(self, "horizon_used", horizon_used)
        _set(self, "counterexample", counterexample)
        _set(self, "strategy", strategy)

    def __bool__(self) -> bool:
        return self.value


def _check_preconditions(ets: EpistemicTransitionSystem, h: History,
                         f: Formula, horizon: int | None) -> tuple[int, list[int]]:
    """Both evaluators' input checks, in order; the horizon used and ``h``'s moves.

    ``h`` must be a history of ``ets``, then ``ets`` regular: the know-how
    clause quantifies over every history's successors, so this is the one
    place an irregular system is refused, naming its first gap.
    """
    moves = validate_history(ets, h)
    gaps = check_regular(ets)
    if gaps:
        w, profile = gaps[0]
        raise RegularityError(
            f"system is not regular: no successor for state {w!r} under "
            f"profile {profile} ({len(gaps)} violations)")
    shape = measures(f)
    if shape.nesting > MAX_NESTING:
        raise NestingError(f"formula nests deeper than {MAX_NESTING} levels")
    undeclared = shape.agents - ets.agents
    if undeclared:
        raise UndeclaredAgentError(
            f"formula names undeclared agent {min(undeclared)!r}")
    if shape.uses_empty_coalition:
        floor = h.length + shape.h_depth
        if horizon is None:
            raise HorizonError(
                f"formula uses an empty coalition; supply a horizon >= {floor}")
        if horizon < floor:
            raise HorizonError(
                f"horizon {horizon} too small, need at least {floor} "
                f"(history length plus know-how nesting)")
        return horizon, moves
    return 0, moves


class _View:
    """What coalition C sees of each move, built once per system.

    A move of state ``w`` is an index into ``ets.successors(w)``.
    ``look[w]`` holds C's blocks of ``w``, read from ``ets._block``: two
    states are alike to C iff their looks are equal.  ``picks[w][i]`` is the
    position in ``profiles``, which is ``profiles_over(C)``, of move ``i``'s
    votes by C, read from a table keyed by each complete profile's votes, so
    no profile is hashed or compared.  ``sees[w][i]`` numbers the pair of
    that pick and the look of the move's target (the pick times the number
    of looks, plus the look's number), so two moves are alike to C iff
    their numbers are equal; ``alike[w]`` maps each number to the moves of
    ``w`` that carry it, in successor order.
    """

    def __init__(self, ets: EpistemicTransitionSystem, states: list[str],
                 coalition: Coalition):
        blocks = [ets._block[a] for a in sorted(coalition)]
        self.look = {w: tuple([block[w] for block in blocks]) for w in states}
        looks: dict[tuple[int, ...], int] = {}  # each distinct look, numbered
        look_no = {w: looks.setdefault(look, len(looks)) for w, look in self.look.items()}
        self.profiles = ets.profiles_over(coalition)
        position = {s.votes: p for p, s in enumerate(self.profiles)}
        pick = {s.votes: position[tuple([v for v in s.votes if v[0] in coalition])]
                for s in ets.complete_profiles}
        width = len(looks)
        self.picks: dict[str, list[int]] = {}
        self.sees: dict[str, list[int]] = {}
        self.alike: dict[str, dict[int, list[int]]] = {}
        for w in states:
            moves = ets.successors(w)
            picks = self.picks[w] = [pick[s.votes] for s, _ in moves]
            sees = self.sees[w] = [p * width + look_no[v]
                                   for p, (_, v) in zip(picks, moves)]
            alike = self.alike[w] = {}
            for i, seen in enumerate(sees):
                alike.setdefault(seen, []).append(i)


class _Types:
    """The knowledge types of one evaluation, interned as ints.

    ``types[t]`` is ``(head, members)``.  An ``f``-type's ``members`` maps
    each node ``M{C} x`` of ``nodes(f)`` to the distinct ``x``-types of the
    histories C cannot tell apart from the typed one.  So a type names its
    own nodes, and every subformula that ``f`` reaches through ``!`` and
    ``->`` is decided on it.  A history steps along a move, an index into
    its head's successors, and ``steps[t][i]`` keeps the type that move ``i``
    leads to, or None until it is asked for.

    What a coalition knows under perfect recall is a set of histories, so
    members are a sorted set, and two histories with the same member sets
    share a type.  The exception is a node whose ``x`` reaches a
    ``K{}``/``H{}``: deciding it runs walks, which ``all`` cuts short, so
    which walks run, and with them ``bounded``, follows the order members
    are decided in.  Such a node keeps its members in the level order of
    their first history, the order ``evaluate_naive`` meets them in.

    Each new type adds its member entries to ``entries``; past
    ``MAX_TYPE_ENTRIES`` the evaluation raises ``TypeBudgetError``.
    """

    def __init__(self, ets: EpistemicTransitionSystem):
        self.ets = ets
        self.states = sorted(ets.states)  # the level-0 order
        self.types: list[tuple[str, dict[Formula, tuple[int, ...]]]] = []
        self.ids: dict[tuple, int] = {}
        self.modal: dict[Formula, dict[Formula, None]] = {}
        self.as_set: dict[Formula, bool] = {}
        self.roots: dict[tuple[Formula, str], int] = {}
        self.steps: list[list[int | None]] = []
        self.entries = 0

    def intern(self, head: str, members: dict[Formula, tuple[int, ...]]) -> int:
        key = (head, tuple(members.items()))
        t = self.ids.get(key)
        if t is None:
            self.entries += sum(map(len, members.values()))
            if self.entries > MAX_TYPE_ENTRIES:
                raise TypeBudgetError(
                    f"formula needs more than {MAX_TYPE_ENTRIES} knowledge-type "
                    f"entries; nest fewer K/H modalities")
            t = self.ids[key] = len(self.types)
            self.types.append((head, members))
            self.steps.append([None] * len(self.ets.successors(head)))
        return t

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
                        self.as_set[g] = not measures(g.sub).uses_empty_coalition
        return self.modal[f]

    def view(self, coalition: Coalition) -> _View:
        """The coalition's :class:`_View`, built once per system."""
        views = self.ets._views
        if coalition not in views:
            views[coalition] = _View(self.ets, self.states, coalition)
        return views[coalition]

    def root(self, f: Formula, w: str) -> int:
        """The ``f``-type of the length-0 history ``w``."""
        if (f, w) not in self.roots:
            members = {}
            for node in self.nodes(f):
                look = self.view(node.coalition).look
                found = dict.fromkeys(
                    self.root(node.sub, v) for v in self.states if look[v] == look[w])
                members[node] = tuple(sorted(found) if self.as_set[node] else found)
            self.roots[(f, w)] = self.intern(w, members)
        return self.roots[(f, w)]

    def step(self, t: int, i: int) -> int:
        """The type of ``g`` extended by move ``i`` of its head, for a
        history ``g`` of type ``t``.

        By the decomposition lemma, the histories C cannot tell apart from
        the extension are the members' histories extended by the moves that
        C sees as it sees move ``i``.
        """
        row = self.steps[t]
        u = row[i]
        if u is None:
            types = self.types
            head, old_members = types[t]
            members = {}
            for node, old in old_members.items():
                view = self.view(node.coalition)
                seen, alike = view.sees[head][i], view.alike
                found: dict[int, None] = {}
                for m in old:
                    for j in alike[types[m][0]].get(seen, ()):
                        found[self.step(m, j)] = None
                members[node] = tuple(sorted(found) if self.as_set[node] else found)
            u = row[i] = self.intern(self.ets.successors(head)[i][1], members)
        return u

    def of(self, f: Formula, start: str, moves: list[int]) -> int:
        """The ``f``-type of the history that starts at ``start`` and steps
        along ``moves``, as :func:`validate_history` lists them."""
        t = self.root(f, start)
        for i in moves:
            t = self.step(t, i)
        return t


class _Evaluator:
    """Memoizing evaluator; one instance per top-level evaluate call."""

    def __init__(self, ets: EpistemicTransitionSystem, horizon: int):
        self.ets = ets
        self.horizon = horizon
        self.types = _Types(ets)
        self.values: dict[tuple[Formula, int], bool] = {}
        self.refutations: dict[tuple[Formula, int], History | None] = {}

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
        types = self.types
        view = types.view(node.coalition)
        # the members' successor types, grouped by the coalition's votes
        forced: dict[int, dict[int, None]] = {}
        for m in members:
            for i, p in enumerate(view.picks[types.types[m][0]]):
                forced.setdefault(p, {})[types.step(m, i)] = None
        for p, s in enumerate(view.profiles):
            if all(self.value(node.sub, t) for t in forced.get(p, ())):
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
        return self.refutations[key]

    def find_counterexample(self, body: Formula, min_length: int) -> History | None:
        """The first history in level order, of a length from ``min_length``
        to the horizon, where ``body`` fails; None if there is none.

        A level maps each body type to the path of its first history: a
        root state, or ``(parent path, move)``.  The next level steps from
        those in successor order, since a later history of the same type
        has later successors of the same types.  The walk stops once a
        level at or past ``min_length`` brings no undecided type: no later
        level can (see the module docstring).
        """
        types = self.types
        level: dict[int, object] = {}
        for w in types.states:
            level.setdefault(types.root(body, w), w)
        decided: set[int] = set()
        for n in range(self.horizon + 1):
            if n:
                prev, level = level, {}
                for t, path in prev.items():
                    for i in range(len(types.steps[t])):
                        u = types.step(t, i)
                        if u not in level:
                            level[u] = (path, i)
            if n >= min_length:
                fresh = [t for t in level if t not in decided]
                if not fresh:
                    return None
                for t in fresh:
                    if not self.value(body, t):
                        return self._history(level[t])
                decided.update(fresh)
        return None

    def _history(self, path) -> History:
        """The history a walk path names."""
        moves = []
        while isinstance(path, tuple):
            path, i = path
            moves.append(i)
        h = History((path,), ())
        for i in reversed(moves):
            h = h.extend(*self.ets.successors(h.head)[i])
        return h


def evaluate(ets: EpistemicTransitionSystem, h: History, f: Formula,
             horizon: int | None = None) -> Verdict:
    """Decide whether ``f`` holds at history ``h``.

    ``horizon`` is required (and must cover the history plus the formula's
    know-how nesting) exactly when the formula mentions an empty coalition;
    it is ignored otherwise and the verdict is horizon-independent.
    """
    used, moves = _check_preconditions(ets, h, f, horizon)
    ev = _Evaluator(ets, used)
    t = ev.types.of(f, h.states[0], moves)
    if isinstance(f, How):
        strategy = ev.strategy(f, ev.types.types[t][1].get(f, ()))
        value = strategy is not None
    else:
        strategy, value = None, ev.value(f, t)
    counterexample = None
    if isinstance(f, (Know, How)) and not f.coalition:
        counterexample = ev.refutation(f.sub, 1 if isinstance(f, How) else 0)
    bounded = None in ev.refutations.values()
    return Verdict(value, bounded=bounded, horizon_used=used,
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
    used, _ = _check_preconditions(ets, h, f, horizon)
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
