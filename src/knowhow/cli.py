"""Command-line front-end.

Subcommands: ``check`` evaluates a formula at a history of a model file,
``prove`` verifies a derivation file, ``fuzz`` runs the random property
suites, ``examples`` replays the bundled claim lists, and ``validate`` runs
well-formedness and regularity checks on a model file.

Exit status: 0 for True/ok/clean, 1 for False/failing line/violations,
2 for usage or format errors.
"""
from __future__ import annotations

import argparse
import functools
import sys

# proofkit and harness are the package's lazy modules: they run when a
# handler (or the error tuple in ``main``) first reads one of their names
from . import harness, proofkit
from .checker import HorizonError, UndeclaredAgentError, evaluate, witness
from .formula import FormulaSyntaxError, h_depth, parse, uses_empty_coalition, How
from .fixtures import FIXTURES, load_fixture, run_claims
from .system import (
    InvalidHistoryError, ModelFormatError, check_regular, load_system,
    parse_history,
)


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        # the codec's message names a byte and a position, not the file
        raise UnicodeDecodeError(e.encoding, e.object, e.start, e.end,
                                 f"{e.reason} in {path}") from None


def _cmd_check(args) -> int:
    ets = load_system(_read(args.system))
    h = parse_history(ets, args.history)
    f = parse(args.formula)
    horizon, empty = args.horizon, uses_empty_coalition(f)
    if horizon is None and empty:
        horizon = h.length + h_depth(f) + 2  # never silently bounded; see report
    verdict = (witness(ets, h, f.coalition, f.sub, horizon) if isinstance(f, How)
               else evaluate(ets, h, f, horizon))
    print(f"formula: {f}")
    print(f"history: {h}")
    print(f"verdict: {verdict.value}")
    if empty:
        print(f"horizon: {verdict.horizon_used}")
        print(f"bounded: {'yes' if verdict.bounded else 'no'}")
    else:
        print("horizon: exact (no empty coalitions)")
    if verdict.counterexample is not None:
        print(f"counterexample: {verdict.counterexample}")
    if isinstance(f, How):
        found = verdict.strategy
        if found is None:
            print("witness: none")
        else:
            print(f"witness: {found if found.votes else '(empty profile)'}")
    return 0 if verdict.value else 1


def _cmd_prove(args) -> int:
    result = proofkit.verify(proofkit.parse_derivation(_read(args.proof)))
    print(result)
    return 0 if result.ok else 1


def _cmd_examples(args) -> int:
    ets = load_fixture(args.fixture)
    claims = FIXTURES[args.fixture][1]
    passed = 0
    for claim, results in run_claims(ets, claims):
        ok = all(verdict.value == expected
                 for (_, _, verdict), (_, _, expected) in zip(results, claim.checks))
        passed += ok
        detail = "; ".join(
            f"({h}) |- {f} -> {verdict.value}" for h, f, verdict in results)
        print(f"{'PASS' if ok else 'FAIL'}  {claim.label}: {detail}")
    print(f"{passed}/{len(claims)} claims pass")
    return 0 if passed == len(claims) else 1


def _cmd_fuzz(args) -> int:
    import json

    params = harness.GenParams(
        seed=args.seed, num_states=args.states, num_agents=args.agents,
        num_choices=args.choices, formula_depth=args.formula_depth,
        history_depth=args.depth,
        horizon=max(args.horizon, args.depth + args.formula_depth))
    sound = harness.soundness_suite(params, num_systems=args.systems,
                                    num_instances=args.instances)
    lemmas = harness.lemma_suite(params, num_systems=max(1, args.systems // 2))
    if args.json:
        print(json.dumps({"soundness": sound.to_dict(), "lemmas": lemmas.to_dict()},
                         indent=2))
    else:
        for line in sound.to_lines() + lemmas.to_lines():
            print(line)
    clean = not (sound.violations or sound.guard_rejections or lemmas.failures)
    return 0 if clean else 1


def _cmd_validate(args) -> int:
    ets = load_system(_read(args.system), require_regular=False)
    print(f"agents: {len(ets.agents)}  states: {len(ets.states)}  "
          f"choices: {len(ets.choices)}  transitions: {len(ets.mechanism)}")
    violations = check_regular(ets)
    if violations:
        print(f"not regular: {len(violations)} state/profile pairs lack a successor")
        for w, profile in violations[:10]:
            print(f"  {w} [{profile}]")
        return 1
    print("regular: every state/profile pair has a successor")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="knowhow",
        description="Model checking and proof checking for coalition know-how "
                    "under perfect recall.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="evaluate a formula at a history")
    p.add_argument("--system", required=True, help="model file path")
    p.add_argument("--history", required=True,
                   help="history literal, e.g. 'w0 ; a=1,b=0 ; w4'")
    p.add_argument("--formula", required=True, help="formula text")
    p.add_argument("--horizon", type=int, default=None,
                   help="history length cap for empty-coalition modalities")

    p = sub.add_parser("prove", help="verify a derivation file")
    p.add_argument("proof", help="proof file path")

    p = sub.add_parser("fuzz", help="run the random property suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--systems", type=int, default=10)
    p.add_argument("--instances", type=int, default=5,
                   help="instances per axiom schema per system")
    p.add_argument("--depth", type=int, default=3, help="history depth")
    p.add_argument("--states", type=int, default=4)
    p.add_argument("--agents", type=int, default=2)
    p.add_argument("--choices", type=int, default=2)
    p.add_argument("--formula-depth", type=int, default=2)
    p.add_argument("--horizon", type=int, default=6)
    p.add_argument("--json", action="store_true",
                   help="machine-readable report")

    p = sub.add_parser("examples", help="replay a bundled claim list")
    p.add_argument("fixture", choices=sorted(FIXTURES))

    p = sub.add_parser("validate", help="well-formedness and regularity checks")
    p.add_argument("--system", required=True, help="model file path")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: building it costs more than most checks
    return build_parser()


def _usage_errors() -> tuple[type[BaseException], ...]:
    # called from ``main``'s except clause, which Python evaluates only when
    # an exception reaches it, so a clean ``check`` never runs proofkit or
    # harness for their error types
    return (FormulaSyntaxError, ModelFormatError, InvalidHistoryError,
            proofkit.ProofFormatError, proofkit.OpaqueLimitError, HorizonError,
            UndeclaredAgentError, harness.GenParamsError, OSError, UnicodeDecodeError)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    # named here, not in the shared parser, so each call runs the handler
    # the module holds at that moment
    handlers = {"check": _cmd_check, "prove": _cmd_prove, "fuzz": _cmd_fuzz,
                "examples": _cmd_examples, "validate": _cmd_validate}
    try:
        return handlers[args.command](args)
    except _usage_errors() as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
