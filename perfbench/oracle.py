"""Reference answers for ``check`` and ``horizon`` queries, from the naive oracle.

Run as ``python3 perfbench/oracle.py QUERIES.json ANSWERS.json`` from the
root of a checkout.  For each query it records what ``evaluate_naive`` says
at the same horizon: the truth value, the ``bounded`` flag when the formula
has an empty coalition, and the counterexample.  For a top-level know-how
goal it also lists every strategy profile that passes the know-how clause
when replayed with the oracle, so a printed witness can be checked against
that list.  The fast evaluator and ``witness`` are never called here.

It runs in its own process, outside every timed region, so neither its time
nor its memory shows in the benchmark's metrics.
"""
from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path


def _profile_text(votes) -> str:
    return ",".join(f"{a}={c}" for a, c in votes)


def _history_text(h) -> str:
    parts = [h.states[0]]
    for profile, state in zip(h.profiles, h.states[1:]):
        parts += [_profile_text(profile.votes), state]
    return " ; ".join(parts)


def answer(ets, query: dict) -> dict:
    from knowhow.checker import evaluate_naive
    from knowhow.formula import How, parse, uses_empty_coalition
    from knowhow.system import (
        Profile, extensions, hist_indist, histories_of_length, parse_history,
        profile_agrees,
    )

    h = parse_history(ets, query["history"])
    f = parse(query["formula"])
    horizon = query["horizon"]
    verdict = evaluate_naive(ets, h, f, horizon)
    out = {
        "value": verdict.value,
        "bounded": verdict.bounded if uses_empty_coalition(f) else None,
        "counterexample": (None if verdict.counterexample is None
                           else _history_text(verdict.counterexample)),
        "witnesses": None,
    }
    if not isinstance(f, How):
        return out
    if not f.coalition:
        out["witnesses"] = ["(empty profile)"] if verdict.value else []
        return out
    # the know-how clause for one strategy, transcribed as acceptance
    # criterion 7 does: every extension of every indistinguishable history
    # that follows the strategy must satisfy the body
    members = sorted(f.coalition)
    passing = []
    for combo in itertools.product(sorted(ets.choices), repeat=len(members)):
        strategy = Profile(tuple(zip(members, combo)))
        if all(evaluate_naive(ets, ext, f.sub, horizon).value
               for g in histories_of_length(ets, h.length)
               if hist_indist(ets, h, g, f.coalition)
               for ext in extensions(ets, g)
               if profile_agrees(ext.profiles[-1], strategy, f.coalition)):
            passing.append(_profile_text(strategy.votes))
    if bool(passing) != verdict.value:
        raise RuntimeError(
            f"oracle verdict {verdict.value} but {len(passing)} replayed "
            f"witnesses for {query['formula']} at {query['history']}")
    out["witnesses"] = passing
    return out


def main(argv: list[str]) -> int:
    from knowhow.system import load_system

    src, dst = Path(argv[0]), Path(argv[1])
    spec = json.loads(src.read_text())
    systems = [load_system(text) for text in spec["models"]]
    answers = [answer(systems[q["model"]], q) for q in spec["queries"]]
    dst.write_text(json.dumps(answers))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    sys.exit(main(sys.argv[1:]))
