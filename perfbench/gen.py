"""Seeded input generators for the benchmark, independent of the program.

Models, formulas and derivations are built here as plain data and written
out as the text formats the ``knowhow`` CLI reads (``.ets`` models, formula
literals, ``.proof`` files).  Nothing in this module imports ``knowhow``, so
the inputs of a seed stay the same whatever the program under test does.

Formulas are nested tuples::

    ("atom", name) | ("false",) | ("not", f) | ("imp", f, g)
    | ("K", coalition, f) | ("H", coalition, f)

where a coalition is a sorted tuple of agent names.
"""
from __future__ import annotations

import hashlib
import itertools
import random

PROPS = ("p", "q", "r")


def rng_for(*key) -> random.Random:
    """A generator seeded from ``key``, stable across interpreters."""
    digest = hashlib.sha256(repr(key).encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


# --- formulas ----------------------------------------------------------------

def fmt(f) -> str:
    """Formula text in the CLI grammar; every nested implication is bracketed."""
    kind = f[0]
    if kind == "atom":
        return f[1]
    if kind == "false":
        return "false"
    if kind == "not":
        return "!" + _wrap(f[1])
    if kind in ("K", "H"):
        return f"{kind}{{{','.join(f[1])}}} {_wrap(f[2])}"
    if kind == "imp":
        return f"{_wrap(f[1])} -> {_wrap(f[2])}"
    raise ValueError(f"not a formula: {f!r}")


def _wrap(f) -> str:
    text = fmt(f)
    return f"({text})" if f[0] == "imp" else text


def h_depth(f) -> int:
    """Nesting of know-how operators, as the CLI counts it for horizons."""
    kind = f[0]
    if kind in ("atom", "false"):
        return 0
    if kind == "not":
        return h_depth(f[1])
    if kind == "imp":
        return max(h_depth(f[1]), h_depth(f[2]))
    return (kind == "H") + h_depth(f[2])


def imp_chain(premises, conclusion):
    """``x1 -> (x2 -> ... -> (xn -> y))``."""
    for premise in reversed(premises):
        conclusion = ("imp", premise, conclusion)
    return conclusion


# --- models ------------------------------------------------------------------

def gen_model(rng: random.Random, num_states: int, num_agents: int,
              num_choices: int, branching: float,
              block_counts: tuple[int, ...] | None = None) -> dict:
    """A random regular model: every (state, profile) pair gets a successor.

    ``branching`` is the expected number of successors per pair; 1.0 makes
    the mechanism deterministic.  ``block_counts`` fixes how many
    indistinguishability blocks each agent has; the model then has exactly
    ``round((branching - 1) * pairs)`` extra successors, so models of one
    stratum differ only in where their blocks, successors and atoms fall.
    """
    states = [f"s{i}" for i in range(num_states)]
    agents = [f"a{i}" for i in range(num_agents)]
    choices = [str(i) for i in range(num_choices)]
    blocks = {}
    for k, agent in enumerate(agents):
        if block_counts:
            order = rng.sample(states, num_states)
            cuts = sorted(rng.sample(range(1, num_states), block_counts[k] - 1))
            groups = dict(enumerate(order[a:b] for a, b in
                                    zip([0, *cuts], [*cuts, num_states])))
        else:
            labels = [rng.randrange(1 + rng.randrange(num_states)) for _ in states]
            groups: dict[int, list[str]] = {}
            for state, label in zip(states, labels):
                groups.setdefault(label, []).append(state)
        blocks[agent] = sorted(sorted(group) for group in groups.values())
    pairs = [(w, tuple(zip(agents, combo))) for w in states
             for combo in itertools.product(choices, repeat=num_agents)]
    extra = branching - 1.0
    if block_counts:
        wide = set(rng.sample(range(len(pairs)), round(extra * len(pairs))))
    trans = []
    for j, (w, votes) in enumerate(pairs):
        count = (1 + (j in wide) if block_counts
                 else 1 + int(extra) + (rng.random() < extra - int(extra)))
        for w2 in sorted(rng.sample(states, min(count, num_states))):
            trans.append((w, votes, w2))
    valuation = {prop: [w for w in states if rng.random() < 0.5]
                 for prop in PROPS}
    return {"agents": agents, "states": states, "choices": choices,
            "blocks": blocks, "trans": trans, "valuation": valuation}


def model_text(model: dict) -> str:
    """The model in the ``.ets`` format, one explicit profile per transition."""
    lines = [f"agents: {' '.join(model['agents'])}",
             f"choices: {' '.join(model['choices'])}",
             f"states: {' '.join(model['states'])}"]
    for agent in model["agents"]:
        wide = [b for b in model["blocks"][agent] if len(b) > 1]
        if wide:
            lines.append(f"indist {agent}: " + " | ".join(" ".join(b) for b in wide))
    for prop, where in model["valuation"].items():
        if where:
            lines.append(f"valuation {prop}: {' '.join(where)}")
    for w1, votes, w2 in model["trans"]:
        pattern = ",".join(f"{a}={c}" for a, c in votes)
        lines.append(f"trans {w1} [{pattern}] {w2}")
    return "\n".join(lines) + "\n"


def random_history(rng: random.Random, model: dict, length: int) -> str:
    """A history literal of ``length`` steps, drawn by a random walk."""
    succ: dict[tuple, list[str]] = {}
    for w1, votes, w2 in model["trans"]:
        succ.setdefault((w1, votes), []).append(w2)
    w = rng.choice(model["states"])
    parts = [w]
    for _ in range(length):
        votes = tuple((a, rng.choice(model["choices"])) for a in model["agents"])
        w = rng.choice(succ[(w, votes)])
        parts += [",".join(f"{a}={c}" for a, c in votes), w]
    return " ; ".join(parts)


def coalition(rng: random.Random, agents) -> tuple:
    """A nonempty coalition."""
    return tuple(sorted(rng.sample(list(agents), rng.randint(1, len(agents)))))


def literal(rng: random.Random):
    """A modality-free formula of depth at most one."""
    roll = rng.random()
    atom = ("atom", rng.choice(PROPS))
    if roll < 0.5:
        return atom
    if roll < 0.75:
        return ("not", atom)
    if roll < 0.95:
        return ("imp", atom, ("atom", rng.choice(PROPS)))
    return ("false",)


def modal(rng: random.Random, agents, depth: int):
    """A formula of modal depth exactly ``depth`` with nonempty coalitions."""
    if depth == 0:
        return literal(rng)
    core = (rng.choice("KH"), coalition(rng, agents), modal(rng, agents, depth - 1))
    roll = rng.random()
    if roll < 0.6:
        return core
    if roll < 0.8:
        return ("not", core)
    if roll < 0.9:
        return ("imp", literal(rng), core)
    return ("imp", core, literal(rng))


# --- derivations -------------------------------------------------------------
# A derivation is a dict with "hyps" (label, formula) pairs, "lines"
# (formula, justification text) pairs and a "goal" formula.

def proof_text(d: dict) -> str:
    """The derivation in the ``.proof`` format."""
    out = []
    if d["hyps"]:
        out.append("hypotheses:")
        out += [f"  {label}: {fmt(f)}" for label, f in d["hyps"]]
    out.append("lines:")
    out += [f"  {i}: {fmt(f)}    {just}"
            for i, (f, just) in enumerate(d["lines"], start=1)]
    out.append(f"goal: {fmt(d['goal'])}")
    return "\n".join(out) + "\n"


def _premise(rng: random.Random, i: int):
    atom = ("atom", f"p{i}")
    return rng.choice((atom, ("not", atom), ("K", (rng.choice("abc"),), atom)))


def superdistributivity(rng: random.Random, n: int, strategic: bool) -> dict:
    """``H{C1} x1, ..., H{Cn} xn |- H{C1 u ... u Cn} y`` (or the ``K{C}`` form).

    The core ``x1 -> ... -> xn -> y`` is a tautology because ``y`` is built
    from the premises; it is necessitated with the empty coalition (or with
    ``C``) and the premises are folded in by Cooperation (or Distributivity)
    and modus ponens, one hypothesis per round.  Valid by construction.
    """
    xs = [_premise(rng, i) for i in range(1, n + 1)]
    j, k = rng.randrange(n), rng.randrange(n)
    y = xs[j] if rng.random() < 0.5 else ("imp", xs[k], xs[j])
    if strategic:
        coalitions = [(f"b{i}",) for i in range(1, n + 1)]
        box, axiom, rule = "H", "Cooperation", "snec"
    else:
        coalitions = [coalition(rng, "abc")] * n
        box, axiom, rule = "K", "Distributivity", "nec"
    hyps = [(f"h{i}", (box, c, x)) for i, (c, x) in enumerate(zip(coalitions, xs), 1)]
    rest = imp_chain(xs, y)
    aggregate = () if strategic else coalitions[0]
    lines = [(rest, "taut"), ((box, aggregate, rest), f"{rule}{{{','.join(aggregate)}}} 1")]
    for i, (c, x) in enumerate(zip(coalitions, xs)):
        tail = rest[2]
        widened = tuple(sorted(set(aggregate) | set(c)))
        step = ("imp", (box, c, x), (box, widened, tail))
        lines.append((("imp", (box, aggregate, rest), step), f"axiom {axiom}"))
        lines.append((step, f"mp {len(lines) - 1} {len(lines)}"))
        lines.append((hyps[i][1], f"hyp {hyps[i][0]}"))
        lines.append(((box, widened, tail), f"mp {len(lines)} {len(lines) - 1}"))
        aggregate, rest = widened, tail
    return {"hyps": hyps, "lines": lines, "goal": (box, aggregate, y)}


def syllogism(rng: random.Random, k: int) -> dict:
    """One ``taut`` line over ``k`` distinct opaque modal subformulas.

    ``(M1 -> M2) -> ((M2 -> M3) -> ... -> (M1 -> Mk))`` is valid for any
    ``M``; the verifier must try all ``2^k`` assignments to accept it.
    """
    ms = [(rng.choice("KH"), coalition(rng, "abc"), ("atom", f"p{i}"))
          for i in range(1, k + 1)]
    steps = [("imp", a, b) for a, b in zip(ms, ms[1:])]
    line = imp_chain(steps, ("imp", ms[0], ms[-1]))
    return {"hyps": [], "lines": [(line, "taut")], "goal": line}


def corrupt(rng: random.Random, d: dict) -> tuple[dict, int]:
    """Break one line of a valid derivation; return it and that line's number.

    Every earlier line stays valid, so the verifier's first failure is known.
    """
    lines = list(d["lines"])
    candidates = [i for i, (_, just) in enumerate(lines)
                  if just == "taut" or just.startswith(("axiom", "mp"))]
    i = rng.choice(candidates)
    f, just = lines[i]
    if just == "taut":
        lines[i] = (("imp", f, ("atom", "z")), just)  # a tautology implying a fresh atom
    elif just.startswith("axiom"):
        lines[i] = (f, "axiom Truth")  # no Cooperation or Distributivity instance is one
    else:
        _, a, b = just.split()
        lines[i] = (f, f"mp {b} {a}")  # premise and implication swapped
    return {**d, "lines": lines}, i + 1


def valid_body(rng: random.Random, agents, know_how: bool, variant: int):
    """An instance of a valid schema, true at every history of every regular
    system, with nonempty coalitions ``D`` within ``C``.

    Without ``know_how`` the instance has no ``H`` (h_depth 0): Truth or
    Monotonicity.  With it (h_depth 1): know-how widening to a superset or
    Unachievability of falsehood.  Perfect recall is left out: its ``K``
    inside an ``H`` builds class tables one level beyond the horizon, and
    its cost then ranged over 0.2-2 s from system to system.
    """
    c = coalition(rng, agents)
    d = tuple(sorted(rng.sample(c, rng.randint(1, len(c)))))
    x = literal(rng)
    if not know_how:
        return (("imp", ("K", c, x), x),
                ("imp", ("K", d, x), ("K", c, x)))[variant % 2]
    return (("imp", ("H", d, x), ("H", c, x)),
            ("not", ("H", c, ("false",))))[variant % 2]
