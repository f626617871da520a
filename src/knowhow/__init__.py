"""Verification toolkit for distributed knowledge and coalition know-how
under perfect recall: a satisfaction checker over epistemic transition
systems, a Hilbert-style derivation verifier, and randomized property suites.

What loads when: ``import knowhow`` runs ``formula``, ``system``,
``checker`` and ``fixtures``, the modules ``knowhow check`` needs.
``proofkit`` (the derivation verifier) and ``harness`` (the property suites)
are registered in ``sys.modules`` and bound here as ``knowhow.proofkit`` and
``knowhow.harness``, but each runs only when one of its attributes is first
read: ``knowhow.verify``, ``knowhow.proofkit.verify``,
``from knowhow.harness import ...`` and ``from knowhow import *`` all run it.
So a process that only checks formulas never compiles or runs them.
"""

from .formula import (
    Atom, Coalition, Falsum, Formula, FormulaSyntaxError, How, Implies, Know,
    NestingError, Not, format_formula, h_depth, parse, uses_empty_coalition,
)
from .system import (
    EpistemicTransitionSystem, History, InvalidHistoryError, ModelFormatError,
    Profile, check_regular, extensions, hist_indist, histories_of_length,
    load_system, parse_history, profile_agrees, state_indist,
)
from .checker import (
    HorizonError, RegularityError, TypeBudgetError, UndeclaredAgentError,
    Verdict, evaluate, evaluate_naive, witness,
)
from .fixtures import load_fixture


def _lazy(name: str):
    """Register the submodule ``name`` unexecuted; it runs on its first attribute read."""
    import importlib.util
    import sys

    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# bound as package attributes, so ``from . import harness`` finds them here
# and does not go through the import system, which would run them
proofkit = _lazy("proofkit")
harness = _lazy("harness")

_LAZY = dict.fromkeys((
    "AxiomName", "Derivation", "ProofFormatError", "VerifyResult",
    "derive_k_superdistributivity_instance",
    "derive_superdistributivity_instance", "is_tautology", "match_axiom",
    "parse_derivation", "verify"), proofkit) | dict.fromkeys((
        "GenParams", "gen_formula", "gen_system", "lemma_suite",
        "soundness_suite"), harness)


def __getattr__(name: str):
    # PEP 562: only names not bound above get here
    home = _LAZY.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(home, name)


def __dir__() -> list[str]:
    return sorted(globals().keys() | _LAZY.keys())


__version__ = "0.1.0"

__all__ = [
    "Atom", "AxiomName", "Coalition", "Derivation",
    "EpistemicTransitionSystem", "Falsum", "Formula", "FormulaSyntaxError",
    "GenParams", "History", "HorizonError", "How", "Implies",
    "InvalidHistoryError", "Know", "ModelFormatError", "NestingError", "Not",
    "Profile", "ProofFormatError", "RegularityError", "TypeBudgetError",
    "UndeclaredAgentError",
    "Verdict",
    "VerifyResult", "check_regular",
    "derive_k_superdistributivity_instance",
    "derive_superdistributivity_instance", "evaluate", "evaluate_naive",
    "extensions", "format_formula", "gen_formula", "gen_system", "h_depth",
    "hist_indist", "histories_of_length", "is_tautology",
    "lemma_suite", "load_fixture", "load_system", "match_axiom", "parse",
    "parse_derivation", "parse_history", "profile_agrees",
    "soundness_suite", "state_indist", "uses_empty_coalition", "verify",
    "witness",
]
