"""Bundled example systems with their claim lists, and the bundled proofs."""
from __future__ import annotations

from .formula import InputError
from .system import EpistemicTransitionSystem, load_system

FIXTURES = ("t1", "t2")


def fixture_text(name: str, suffix: str = ".ets") -> str:
    """A bundled fixture's model text, or with ``".claims"`` its claim list."""
    from importlib import resources  # costs more to import than `check` takes

    return resources.files("knowhow").joinpath("data", name + suffix).read_text()


def load_fixture(name: str) -> EpistemicTransitionSystem:
    """Load a bundled system by name ('t1' or 't2')."""
    return load_system(fixture_text(name))


def proof_text(filename: str) -> str:
    from importlib import resources

    return resources.files("knowhow").joinpath("data", "proofs", filename).read_text()


def read_claims(text: str) -> list[tuple[str, list[tuple[str, str, bool, int]]]]:
    """Each claim's label and checks, ``(history literal, formula, expected,
    line_no)``.

    A ``claim: LABEL`` line opens a claim, each line under it is one check,
    ``history literal | formula | true|false``, and ``#`` starts a comment.
    A check's ``line_no`` is the line it was read from, so an error found in
    it later can name that line.
    """
    claims: list[tuple[str, list[tuple[str, str, bool, int]]]] = []
    opened: list[int] = []  # the line of each claim's ``claim:``
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if line.startswith("claim:"):
            label = line[len("claim:"):].strip()
            if not label:
                raise InputError("claim has no label", line_no)
            claims.append((label, []))
            opened.append(line_no)
        elif line:
            fields = [field.strip() for field in line.split("|")]
            if len(fields) != 3 or not all(fields):
                raise InputError("expected 'history | formula | true|false'", line_no)
            literal, formula, expected = fields
            if expected not in ("true", "false"):
                raise InputError(f"expected value {expected!r} is not true or false",
                                 line_no)
            if not claims:
                raise InputError("check before any 'claim:' line", line_no)
            claims[-1][1].append((literal, formula, expected == "true", line_no))
    for (label, checks), line_no in zip(claims, opened):
        if not checks:
            raise InputError(f"claim {label!r} has no checks", line_no)
    return claims
