"""Bundled example systems and their documented satisfaction claims."""
from __future__ import annotations

from dataclasses import dataclass

from .checker import Verdict, evaluate
from .formula import Formula, parse
from .system import EpistemicTransitionSystem, History, load_system, parse_history


@dataclass(frozen=True)
class Claim:
    """One named claim; a claim may pin the same formula at several histories."""

    label: str
    checks: tuple[tuple[str, str, bool], ...]  # (history literal, formula, expected)


T1_CLAIMS: tuple[Claim, ...] = (
    Claim("fresh start in w2 leaves p unknown",
          (("w2", "K{a} p", False),)),
    Claim("one remembered step from w1 still leaves p unknown",
          (("w1 ; a=0 ; w2", "K{a} p", False),)),
    Claim("the full run from w0 pins p down",
          (("w0 ; a=1 ; w1 ; a=0 ; w2", "K{a} p", True),)),
    Claim("no single instruction reaches p from both w1 and w1'",
          (("w1", "H{a} p", False), ("w1'", "H{a} p", False))),
    Claim("after w0 -> w1 the same instruction 0 works everywhere",
          (("w0 ; a=1 ; w1", "H{a} p", True),)),
    Claim("from w0 the agent knows how to reach a position of knowing how",
          (("w0", "H{a} H{a} p", True),)),
)

T2_CLAIMS: tuple[Claim, ...] = (
    Claim("a and b jointly know how to reach p",
          (("w0", "H{a,b} p", True),)),
    Claim("a alone cannot tell w0 from w1, so no know-how",
          (("w0", "H{a} p", False),)),
    Claim("b alone cannot tell w0 from w2, so no know-how",
          (("w0", "H{b} p", False),)),
)

FIXTURES = {"t1": ("t1.ets", T1_CLAIMS), "t2": ("t2.ets", T2_CLAIMS)}


def fixture_text(name: str) -> str:
    from importlib import resources  # costs more to import than `check` takes

    filename, _ = FIXTURES[name]
    return resources.files("knowhow").joinpath("data", filename).read_text()


def load_fixture(name: str) -> EpistemicTransitionSystem:
    """Load a bundled system by name ('t1' or 't2')."""
    return load_system(fixture_text(name))


def proof_text(filename: str) -> str:
    from importlib import resources

    return resources.files("knowhow").joinpath("data", "proofs", filename).read_text()


def run_claims(ets: EpistemicTransitionSystem, claims: tuple[Claim, ...]
               ) -> list[tuple[Claim, list[tuple[History, Formula, Verdict]]]]:
    """Each claim with the history, formula and verdict of each of its checks."""
    out = []
    for claim in claims:
        results = []
        for literal, text, _ in claim.checks:
            h, f = parse_history(ets, literal), parse(text)
            results.append((h, f, evaluate(ets, h, f)))
        out.append((claim, results))
    return out
