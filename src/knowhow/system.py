"""Epistemic transition systems, histories, profiles, and their relations.

A system is a set of states, a per-agent partition of the states into
indistinguishability blocks, a finite choice domain, a nondeterministic
mechanism relation over (state, complete profile, state) triples, and a
valuation of proposition tokens.  Histories are mechanism-consistent
alternating sequences of states and complete profiles; all queries here are
pure, and no value changes once built.

A ``Profile`` is an immutable record of its sorted votes, and a
``History`` keeps its states and profiles as plain tuples.  One enumerator,
``_profiles``, lists the profiles of a coalition, the complete profiles,
the profiles a wildcard ``trans`` pattern matches and those the harness's
generator draws successors for.
:func:`histories_of_length` builds whole levels, once per system, and
:func:`parse_history` walks down from a level-0 root.  The relations
``state_indist``, ``profile_agrees`` and ``hist_indist`` are the plain
pairwise definitions; the checker never lists a class.  They read a vote
from the profile's agent map and a block from the agent's block table, so
``hist_indist`` costs O(length x |C|) lookups.

A system is built, and a model loaded, whether or not it is regular: the
checker refuses one that :func:`check_regular` finds a gap in.
"""
from __future__ import annotations

import itertools
import re
from collections.abc import Container, Iterable, Mapping

from .formula import RESERVED, Coalition, IDENT_RE, InputError, _Record

TOKEN_RE = re.compile(r"[A-Za-z0-9_']+")
TRANS_RE = re.compile(r"trans\s+(\S+)\s+\[([^\]]*)\]\s+(\S+)")


class ModelFormatError(InputError):
    """Bad model text: syntax, undeclared names, or a broken partition."""


class InvalidHistoryError(InputError):
    """History literal or History value inconsistent with the system."""


#: Most complete profiles (|choices|^|agents|) a system may have.  Every
#: system lists them all: the regularity check pairs each with every state,
#: and a wildcard transition expands into one triple per matching profile,
#: so time and memory grow by a factor |choices| per agent.  On a 2-vCPU
#: Xeon VM with Python 3.11, validating a one-state wildcard model took
#: 4.1 s and 209 MB with 16 two-choice agents.  At this cap (12 two-choice
#: agents, or 6 four-choice ones), a ``knowhow validate`` process on one
#: state with four wildcard lines takes about 0.15 s and 36 MB, and about
#: 0.15 s and 31 MB when its 4096 profiles are listed one line each.
MAX_PROFILES = 4096


def check_profile_count(num_agents: int, num_choices: int,
                        error: type[InputError] = ModelFormatError) -> None:
    """Raise ``error`` when |choices|^|agents| exceeds ``MAX_PROFILES``.

    Decided before any profile is listed, and without computing a power
    that could itself be huge.
    """
    capped = num_choices ** min(num_agents, MAX_PROFILES.bit_length())
    if capped > MAX_PROFILES:
        raise error(f"{num_choices} choices for {num_agents} agents make more "
                    f"than {MAX_PROFILES} complete profiles")


class _Derived(_Record):
    # what a profile derives from its votes: a slot, but not a record field,
    # as ``Formula`` keeps ``_h`` and ``_measures`` beside its nodes' fields
    __slots__ = ("_choice",)


class Profile(_Derived):
    """Immutable assignment of one choice to each agent in its domain.

    Used both for complete profiles (domain = all agents of the system) and
    for coalition strategy profiles (domain = the coalition).  A record of
    its sorted ``(agent, choice)`` votes: profiles compare by their one
    field, as records do, hash as their ``votes`` do, and have no order;
    sort them by ``votes``.  The agent to choice map ``_choice`` is built
    once, so a vote lookup costs O(1).
    """

    __slots__ = ("votes",)

    def __init__(self, votes: tuple[tuple[str, str], ...]):
        _set_votes(self, votes)
        _set_choice(self, dict(votes))

    def __hash__(self):
        return hash(self.votes)

    @classmethod
    def of(cls, mapping: Mapping[str, str]) -> "Profile":
        return cls(tuple(sorted(mapping.items())))

    def __getitem__(self, agent: str) -> str:
        return self._choice[agent]

    @property
    def agents(self) -> Coalition:
        return frozenset(a for a, _ in self.votes)

    def __str__(self) -> str:
        return ",".join(f"{a}={c}" for a, c in self.votes)


_set_votes, _set_choice = Profile.votes.__set__, Profile._choice.__set__


def _profiles(members: list[str], options: list[list[str]]) -> Iterable[Profile]:
    """Every profile in which each member picks one of its own ``options``:
    the product of the lists in the order given, the first member varying
    slowest, each profile's votes sorted by agent."""
    for combo in itertools.product(*options):
        yield Profile(tuple(sorted(zip(members, combo))))


def profile_agrees(s1: Profile, s2: Profile, coalition: Coalition) -> bool:
    """True iff the two profiles assign the same choice to every agent of the coalition."""
    c1, c2 = s1._choice, s2._choice
    for agent in coalition:
        if c1[agent] != c2[agent]:
            return False
    return True


class History(_Record):
    """States ``w_0..w_n`` interleaved with the profiles ``s_1..s_n`` that produced them.

    An immutable value: two histories are equal, and hash alike, when their
    ``states`` and ``profiles`` tuples are equal.  The oracles read those
    tuples directly.
    """

    __slots__ = ("states", "profiles")

    def __init__(self, states: tuple[str, ...], profiles: tuple[Profile, ...]):
        states, profiles = tuple(states), tuple(profiles)
        if not states or len(states) != len(profiles) + 1:
            raise InvalidHistoryError(
                f"history needs n+1 states for n profiles, got "
                f"{len(states)} states and {len(profiles)} profiles")
        _set_states(self, states)
        _set_profiles(self, profiles)

    @property
    def head(self) -> str:
        return self.states[-1]

    @property
    def length(self) -> int:
        return len(self.profiles)

    def extend(self, profile: Profile, state: str) -> "History":
        child = object.__new__(History)
        _set_states(child, self.states + (state,))
        _set_profiles(child, self.profiles + (profile,))
        return child

    def __str__(self) -> str:
        steps = [f" ; {s} ; {w}" for s, w in zip(self.profiles, self.states[1:])]
        return self.states[0] + "".join(steps)


_set_states, _set_profiles = History.states.__set__, History.profiles.__set__


class EpistemicTransitionSystem:
    """Finite multi-agent transition system with per-agent state partitions.

    ``indist_blocks`` may list only the non-singleton blocks; unlisted states
    become singletons.  The mechanism may be nondeterministic.  Each
    (state, votes, target) triple is kept once, as a move of ``successors``
    that holds the system's own ``complete_profiles`` object; ``mechanism``
    and the regularity gaps (the state/profile pairs with no successor) are
    read off the moves.  The loader's naming and partition rules hold; ask
    :func:`check_regular` for regularity, as the checker does.
    """

    def __init__(
        self,
        agents: Iterable[str],
        states: Iterable[str],
        choices: Iterable[str],
        indist_blocks: Mapping[str, Iterable[Iterable[str]]],
        mechanism: Iterable[tuple[str, Profile, str]],
        valuation: Mapping[str, Iterable[str]],
    ):
        self.agents = frozenset(agents)
        self.states = frozenset(states)
        self.choices = frozenset(choices)
        if not self.agents:
            raise ModelFormatError("system needs at least one agent")
        if not self.states:
            raise ModelFormatError("system needs at least one state")
        if not self.choices:
            raise ModelFormatError("system needs at least one choice")
        for bad, message in ((RESERVED & self.agents, "agent name {!r} is reserved"),
                             (RESERVED.intersection(valuation),
                              "proposition name {!r} is reserved"),
                             (set(indist_blocks) - self.agents, "undeclared agent {!r}")):
            if bad:
                raise ModelFormatError(message.format(min(bad)))
        check_profile_count(len(self.agents), len(self.choices))
        #: all |choices|^|agents| complete profiles, in lexicographic order
        self.complete_profiles = self.profiles_over(self.agents)

        self._block: dict[str, dict[str, int]] = {}
        self.indist: dict[str, tuple[frozenset[str], ...]] = {}
        for agent in sorted(self.agents):
            blocks = [frozenset(b) for b in indist_blocks.get(agent, ())]
            seen: set[str] = set()
            for block in blocks:
                if not block:
                    raise ModelFormatError("empty indist block")
                unknown = block - self.states
                if unknown:
                    raise ModelFormatError(
                        f"indist block for {agent!r} names undeclared state "
                        f"{sorted(unknown)[0]!r}")
                overlap = block & seen
                if overlap:
                    raise ModelFormatError(
                        f"state {sorted(overlap)[0]!r} appears in two indist "
                        f"blocks for agent {agent!r}")
                seen |= block
            blocks += [frozenset({w}) for w in sorted(self.states - seen)]
            blocks = tuple(sorted(blocks, key=lambda b: min(b)))
            self.indist[agent] = blocks
            self._block[agent] = {w: idx for idx, block in enumerate(blocks)
                                  for w in block}

        # only a complete profile's votes skip the checks below, and every
        # other profile fails one of them.  Votes hash and compare in C.
        complete = {s.votes: s for s in self.complete_profiles}
        states = self.states
        keys: set[tuple[str, tuple, str]] = set()
        for w1, profile, w2 in mechanism:
            if w1 not in states or w2 not in states:
                bad = w1 if w1 not in states else w2
                raise ModelFormatError(f"transition names undeclared state {bad!r}")
            votes = profile.votes
            if votes not in complete:
                if profile.agents != self.agents:
                    raise ModelFormatError(
                        f"transition profile {profile} is not over the declared agents")
                for _, choice in profile.votes:
                    if choice not in self.choices:
                        raise ModelFormatError(
                            f"transition uses undeclared choice {choice!r}")
                raise ModelFormatError(
                    f"transition profile {profile} does not list its votes "
                    f"once per agent in agent order")
            keys.add((w1, votes, w2))

        self.valuation: dict[str, frozenset[str]] = {}
        for prop, where in valuation.items():
            where = frozenset(where)
            unknown = where - self.states
            if unknown:
                raise ModelFormatError(
                    f"valuation of {prop!r} names undeclared state {min(unknown)!r}")
            self.valuation[prop] = where

        # sorted keys list each state's moves as ``sorted`` lists its
        # (profile, target) pairs, comparing no profile
        by_state: dict[str, list[tuple[Profile, str]]] = {w: [] for w in states}
        for w1, votes, w2 in sorted(keys):
            by_state[w1].append((complete[votes], w2))
        self._succ: dict[str, tuple[tuple[Profile, str], ...]] = {
            w: tuple(out) for w, out in by_state.items()}
        covered = {(w1, votes) for w1, votes, _ in keys}  # regularity, read once
        self._gaps = [(w, s) for w in sorted(states) for s in self.complete_profiles
                      if (w, s.votes) not in covered]
        self._levels: list[tuple[History, ...]] = []
        # the checker's view of each coalition's moves, built on first use
        self._views: dict[Coalition, object] = {}

    def profiles_over(self, coalition: Coalition) -> tuple[Profile, ...]:
        """All strategy profiles of the coalition, in lexicographic order."""
        choices = sorted(self.choices)
        return tuple(_profiles(sorted(coalition), [choices] * len(coalition)))

    def successors(self, state: str) -> tuple[tuple[Profile, str], ...]:
        return self._succ[state]

    def holds(self, prop: str, state: str) -> bool:
        return state in self.valuation.get(prop, frozenset())

    @property
    def mechanism(self) -> frozenset[tuple[str, Profile, str]]:
        """The (state, complete profile, state) triples, read off the moves."""
        return frozenset([(w1, s, w2) for w1, moves in self._succ.items()
                          for s, w2 in moves])


def check_regular(ets: EpistemicTransitionSystem) -> list[tuple[str, Profile]]:
    """List the (state, complete profile) pairs with no successor; empty iff regular."""
    return list(ets._gaps)


def state_indist(ets: EpistemicTransitionSystem, w1: str, w2: str,
                 coalition: Coalition) -> bool:
    """True iff no agent of the coalition can tell the two states apart."""
    if w1 not in ets.states:
        raise KeyError(w1)
    if w2 not in ets.states:
        raise KeyError(w2)
    for agent in coalition:
        if agent not in ets.agents:
            raise KeyError(agent)
        if ets._block[agent][w1] != ets._block[agent][w2]:
            return False
    return True


def hist_indist(ets: EpistemicTransitionSystem, h1: History, h2: History,
                coalition: Coalition) -> bool:
    """History indistinguishability for a coalition.

    The empty coalition relates any two histories.  Otherwise the histories
    must have equal length, corresponding states must be indistinguishable to
    every member, and corresponding profiles must agree on every member.
    Each member's block table is read once, and a position whose two
    profiles are the same object is skipped, since a profile agrees with
    itself.  A history compared with itself (the same object) is related
    without a compare: each member's block of each of its states is still
    looked up, in the order the comparison reads them, so the same
    ``KeyError`` is raised as below.

    Nothing is validated up front: the relation reads members' blocks and
    votes in turn, answers False at the first difference, and raises
    ``KeyError`` only from a lookup it makes before that.  So unequal
    lengths give False even for a coalition that names no agent of the
    system.  With equal lengths a member or state outside the system raises
    ``KeyError`` when it is reached, which is always the case for a
    history compared with itself, but histories that a member tells apart
    at an earlier lookup give False.
    """
    if not coalition:
        return True
    states1, states2 = h1.states, h2.states
    blocks = ets._block
    if h1 is h2:
        # the loop's lookups in its order, without its compares
        for agent in coalition:
            block = blocks[agent]
            for w in states1:
                block[w]
        return True
    if len(states1) != len(states2):
        return False
    for agent in coalition:
        block = blocks[agent]
        for w1, w2 in zip(states1, states2):
            if block[w1] != block[w2]:
                return False
    for s1, s2 in zip(h1.profiles, h2.profiles):
        if s1 is not s2:
            c1, c2 = s1._choice, s2._choice
            for agent in coalition:
                if c1[agent] != c2[agent]:
                    return False
    return True


def _move(ets: EpistemicTransitionSystem, w1: str, votes: tuple, w2: str) -> int:
    """The index in ``ets.successors(w1)`` of the move to ``w2`` under
    ``votes``; InvalidHistoryError when that step is no move."""
    for i, (s, v) in enumerate(ets._succ[w1]):
        if v == w2 and s.votes == votes:
            return i
    raise InvalidHistoryError(
        f"({w1} ; {Profile(votes)} ; {w2}) is not a mechanism transition")


def validate_history(ets: EpistemicTransitionSystem, h: History) -> list[int]:
    """The moves ``h`` steps along, each an index into its state's
    successors; InvalidHistoryError unless ``h`` is a history of ``ets``.

    Each step is matched by its profile's votes and its target, so a
    history built with profile objects other than the system's own has the
    same moves as the parsed one.
    """
    for w in h.states:
        if w not in ets.states:
            raise InvalidHistoryError(f"undeclared state {w!r} in history")
    return [_move(ets, w1, s.votes, w2)
            for w1, s, w2 in zip(h.states, h.profiles, h.states[1:])]


def extensions(ets: EpistemicTransitionSystem, h: History) -> tuple[History, ...]:
    """All one-step extensions of ``h`` permitted by the mechanism, in successor order."""
    return tuple(h.extend(profile, w) for profile, w in ets._succ[h.head])


def histories_of_length(ets: EpistemicTransitionSystem, n: int) -> tuple[History, ...]:
    """All histories with exactly ``n`` transitions, starting anywhere."""
    if n < 0:
        raise ValueError("history length must be non-negative")
    levels = ets._levels
    if not levels:
        levels.append(tuple(History((w,), ()) for w in sorted(ets.states)))
    while len(levels) <= n:
        levels.append(tuple(ext for g in levels[-1] for ext in extensions(ets, g)))
    return levels[n]


def parse_history(ets: EpistemicTransitionSystem, text: str) -> History:
    """Parse a literal like ``w0 ; a=1,b=0 ; w4`` into a history of ``ets``.

    The whole literal is read before any step is checked.  The history then
    starts at the level-0 history of its first state and steps along the
    system's own moves, each found by :func:`validate_history`'s rule; so it
    holds the system's profile objects, and the first step that is no move
    raises.
    """
    parts = [part.strip() for part in text.split(";")]
    if not parts or len(parts) % 2 == 0:
        raise InvalidHistoryError(
            "history literal must alternate states and profiles, ending in a state")
    states, steps = [], []  # steps: each profile's sorted votes
    for idx, part in enumerate(parts):
        if idx % 2 == 0:
            if not TOKEN_RE.fullmatch(part):
                raise InvalidHistoryError(f"bad state token {part!r}")
            if part not in ets.states:
                raise InvalidHistoryError(f"undeclared state {part!r}")
            states.append(part)
        else:
            votes = _read_votes(part, ets.agents, ets.choices, InvalidHistoryError)
            missing = ets.agents - votes.keys()
            if missing:
                raise InvalidHistoryError(
                    f"profile misses agent {sorted(missing)[0]!r}; history "
                    f"literals need complete profiles")
            steps.append(tuple(sorted(votes.items())))
    history = next(g for g in histories_of_length(ets, 0) if g.head == states[0])
    for votes, w in zip(steps, states[1:]):
        moves = ets._succ[history.head]
        history = history.extend(*moves[_move(ets, history.head, votes, w)])
    return history


def _read_votes(text: str, agents: Container[str], choices: Container[str],
                error: type[InputError], line_no: int | None = None) -> dict[str, str]:
    """The ``agent=choice,...`` votes of a profile or pattern, each agent
    and choice declared and each agent at most once; ``error`` otherwise."""
    votes: dict[str, str] = {}
    for item in text.split(","):
        agent, eq, choice = item.partition("=")
        agent, choice = agent.strip(), choice.strip()
        if not eq:
            raise error(f"bad vote {item.strip()!r}, expected agent=choice", line_no)
        if agent not in agents:
            raise error(f"undeclared agent {agent!r}", line_no)
        if choice not in choices:
            raise error(f"undeclared choice {choice!r}", line_no)
        if agent in votes:
            raise error(f"agent {agent!r} listed twice", line_no)
        votes[agent] = choice
    return votes


def load_system(text: str) -> EpistemicTransitionSystem:
    """Parse the line-oriented model format into a validated system.

    The ``agents``, ``choices`` and ``states`` declarations are read first,
    wherever they stand.  Every other line is a ``trans``, ``indist`` or
    ``valuation`` line, its keyword followed by any whitespace; ``trans``
    lines, most of a model, are matched first.  Wildcard transition
    patterns (``trans w0 [a=1] w2`` leaves the other agents unconstrained;
    ``[]`` matches every profile) expand into explicit mechanism triples;
    pattern lines accumulate rather than override.  ``true`` and ``false``
    are formula constants, so no agent or proposition may take either name.
    An irregular model loads too: :func:`check_regular` lists its gaps, and
    the checker refuses it.
    """
    decls: dict[str, list[str]] = {}
    # every other line in file order, a ``trans`` line with its match
    rest: list[tuple[int, str, re.Match | None]] = []
    match_trans = TRANS_RE.fullmatch
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        m = match_trans(line)
        if m is not None:
            rest.append((line_no, line, m))
            continue
        key, colon, value = line.partition(":")
        key = key.strip()
        if colon and key in ("agents", "choices", "states"):
            if key in decls:
                raise ModelFormatError(f"duplicate {key!r} declaration", line_no)
            tokens = value.split()
            for tok in tokens:
                if not TOKEN_RE.fullmatch(tok):
                    raise ModelFormatError(f"bad token {tok!r}", line_no)
                if key != "choices" and not IDENT_RE.fullmatch(tok):
                    raise ModelFormatError(
                        f"{key[:-1]} name {tok!r} must start with a letter or underscore",
                        line_no)
                if key == "agents" and tok in RESERVED:
                    raise ModelFormatError(f"agent name {tok!r} is reserved", line_no)
            if len(set(tokens)) != len(tokens):
                raise ModelFormatError(f"duplicate name in {key!r} declaration", line_no)
            if not tokens:
                raise ModelFormatError(f"{key!r} declaration is empty", line_no)
            decls[key] = tokens
        else:
            rest.append((line_no, line, None))
    for key in ("agents", "choices", "states"):
        if key not in decls:
            raise ModelFormatError(f"missing {key!r} declaration")

    agents = decls["agents"]
    choices = decls["choices"]
    states = decls["states"]
    check_profile_count(len(agents), len(choices))
    state_set, agent_set, choice_set = set(states), set(agents), set(choices)

    indist_blocks: dict[str, list[list[str]]] = {a: [] for a in agents}
    placed: dict[str, set[str]] = {a: set() for a in agents}  # states in a block
    valuation: dict[str, set[str]] = {}
    mechanism: list[tuple[str, Profile, str]] = []
    expansions: dict[str, list[Profile]] = {}  # each distinct pattern once

    for line_no, line, m in rest:
        if m is not None:
            w1, pattern, w2 = m.groups()
            if w1 not in state_set or w2 not in state_set:
                bad = w1 if w1 not in state_set else w2
                raise ModelFormatError(f"undeclared state {bad!r}", line_no)
            pattern = pattern.strip()
            profiles = expansions.get(pattern)
            if profiles is None:
                fixed = _read_votes(pattern, agent_set, choice_set,
                                    ModelFormatError, line_no) if pattern else {}
                profiles = expansions[pattern] = list(_profiles(
                    agents, [[fixed[a]] if a in fixed else choices for a in agents]))
            for profile in profiles:
                mechanism.append((w1, profile, w2))
            continue
        keyword, *tail = line.split(None, 1)  # any whitespace ends a keyword
        if not tail:
            keyword = None  # and more must follow it
        if keyword == "indist":
            head, colon, body = tail[0].partition(":")
            agent = head.strip()
            if not colon:
                raise ModelFormatError("expected ':' in indist line", line_no)
            if agent not in agent_set:
                raise ModelFormatError(f"undeclared agent {agent!r}", line_no)
            for chunk in body.split("|"):
                block = chunk.split()
                if not block:
                    raise ModelFormatError("empty indist block", line_no)
                for w in block:
                    if w not in state_set:
                        raise ModelFormatError(f"undeclared state {w!r}", line_no)
                overlap = placed[agent].intersection(block)
                if overlap:
                    raise ModelFormatError(f"state {min(overlap)!r} appears in two indist "
                                           f"blocks for agent {agent!r}", line_no)
                placed[agent].update(block)
                indist_blocks[agent].append(block)
        elif keyword == "valuation":
            head, colon, body = tail[0].partition(":")
            prop = head.strip()
            if not colon:
                raise ModelFormatError("expected ':' in valuation line", line_no)
            if not IDENT_RE.fullmatch(prop):
                raise ModelFormatError(f"bad proposition token {prop!r}", line_no)
            if prop in RESERVED:
                raise ModelFormatError(f"proposition name {prop!r} is reserved", line_no)
            for w in body.split():
                if w not in state_set:
                    raise ModelFormatError(f"undeclared state {w!r}", line_no)
                valuation.setdefault(prop, set()).add(w)
        elif keyword == "trans":
            raise ModelFormatError("expected 'trans STATE [pattern] STATE'", line_no)
        else:
            raise ModelFormatError(f"unrecognized line {line!r}", line_no)

    return EpistemicTransitionSystem(
        agents, states, choices, indist_blocks, mechanism, valuation)
