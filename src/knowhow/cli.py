"""Command-line front-end.

Subcommands: ``check`` evaluates a formula at a history of a model file,
``prove`` verifies a derivation file, ``fuzz`` runs the random property
suites, ``examples`` answers a bundled claim list's checks as ``check``
would, and ``validate`` runs well-formedness and regularity checks on a
model file.  ``validate`` lists an irregular model's gaps and exits 1;
``check`` refuses such a model with exit 2, as the checker refuses it.

The one command-line grammar is :func:`build_parser`'s, built once per
process; :func:`_parse` parses each line once, with its subcommand's own
parser where it can.

Exit status: 0 for True/ok/clean, 1 for False/failing line/violations,
2 for usage errors, bad input (any ``InputError``) and unreadable files.
"""
from __future__ import annotations

import argparse
import functools
import sys

# proofkit and harness are the package's lazy modules: they run when a
# handler first reads one of their names
from . import harness, proofkit
from .checker import evaluate, witness
from .formula import InputError, h_depth, parse, uses_empty_coalition, How
from .fixtures import FIXTURES, fixture_text, load_fixture, read_claims
from .system import check_regular, load_system, parse_history


def _read(path: str) -> str:
    """The file's UTF-8 text, without one leading byte-order mark.

    Line ends stay as they are: the model and proof readers split lines
    with ``str.splitlines``, which takes CRLF and a lone CR as line ends.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        # the codec's message names a byte and a position, not the file
        raise InputError(f"{e} in {path}") from None
    return text[1:] if text.startswith("\ufeff") else text


def _query(ets, literal: str, text: str, horizon: int | None = None):
    """The history, formula and verdict of one query, as ``check`` answers
    it: an ``H`` goal's verdict carries its witness."""
    h = parse_history(ets, literal)
    f = parse(text)
    if horizon is None and uses_empty_coalition(f):
        horizon = h.length + h_depth(f) + 2  # never silently bounded; see report
    verdict = (witness(ets, h, f.coalition, f.sub, horizon) if isinstance(f, How)
               else evaluate(ets, h, f, horizon))
    return h, f, verdict


def _cmd_check(args) -> int:
    h, f, verdict = _query(load_system(_read(args.system)), args.history,
                           args.formula, args.horizon)
    empty = uses_empty_coalition(f)
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
    """Answer a bundled claim list as ``check`` would; a bad check errors at its line."""
    ets = load_fixture(args.fixture)
    claims = read_claims(fixture_text(args.fixture, ".claims"))
    passed = 0
    for label, checks in claims:
        results = []
        for literal, text, expected, line_no in checks:
            try:
                h, f, verdict = _query(ets, literal, text)
            except InputError as e:
                # a bad check is reported at its line, as a bad model line is
                raise InputError(str(e), line_no) from None
            results.append((h, f, verdict, expected))
        ok = all(verdict.value == expected for _, _, verdict, expected in results)
        passed += ok
        detail = "; ".join(
            f"({h}) |- {f} -> {verdict.value}" for h, f, verdict, _ in results)
        print(f"{'PASS' if ok else 'FAIL'}  {label}: {detail}")
    print(f"{passed}/{len(claims)} claims pass")
    return 0 if passed == len(claims) else 1


def _cmd_fuzz(args) -> int:
    import json

    params = harness.GenParams(
        seed=args.seed, num_states=args.states, num_agents=args.agents,
        num_choices=args.choices, history_depth=args.depth)
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
    ets = load_system(_read(args.system))
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
    p.add_argument("--json", action="store_true",
                   help="machine-readable report")

    p = sub.add_parser("examples", help="replay a bundled claim list")
    p.add_argument("fixture", choices=sorted(FIXTURES))

    p = sub.add_parser("validate", help="well-formedness and regularity checks")
    p.add_argument("--system", required=True, help="model file path")
    return parser


@functools.cache
def _parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    # built once per process: building it costs more than most checks; the
    # second item maps each subcommand name to its own parser
    parser = build_parser()
    return parser, next(a.choices for a in parser._actions if a.dest == "command")


def _parse(argv: list[str]) -> argparse.Namespace:
    """The Namespace ``build_parser().parse_args(argv)`` gives, parsed once.

    A line that starts with a subcommand name is parsed by that
    subcommand's parser alone.  An empty line, any other first word, a
    ``--`` anywhere and words the subcommand leaves over go through the
    whole parser, so every help text, error and exit code is the one
    grammar's.
    """
    parser, commands = _parser()
    sub = commands.get(argv[0]) if argv and "--" not in argv else None
    if sub is not None:
        args, rest = sub.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    """Run one command line (``sys.argv[1:]`` when ``argv`` is None) and
    return its exit status; see :func:`_parse` for how it is parsed."""
    args = _parse(sys.argv[1:] if argv is None else argv)
    # named here, not in the shared parser, so each call runs the handler
    # the module holds at that moment
    handlers = {"check": _cmd_check, "prove": _cmd_prove, "fuzz": _cmd_fuzz,
                "examples": _cmd_examples, "validate": _cmd_validate}
    try:
        return handlers[args.command](args)
    except (InputError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
