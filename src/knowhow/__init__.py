"""Verification toolkit for distributed knowledge and coalition know-how
under perfect recall: a satisfaction checker over epistemic transition
systems, a Hilbert-style derivation verifier, and randomized property suites.
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
    HorizonError, RegularityError, UndeclaredAgentError, Verdict, evaluate,
    evaluate_naive, witness,
)
from .proofkit import (
    AxiomName, Derivation, ProofFormatError, VerifyResult,
    derive_k_superdistributivity_instance, derive_superdistributivity_instance,
    is_tautology, match_axiom, parse_derivation, verify,
)
from .harness import GenParams, gen_formula, gen_system, lemma_suite, soundness_suite
from .fixtures import load_fixture, run_claims

__version__ = "0.1.0"

__all__ = [
    "Atom", "AxiomName", "Coalition", "Derivation",
    "EpistemicTransitionSystem", "Falsum", "Formula", "FormulaSyntaxError",
    "GenParams", "History", "HorizonError", "How", "Implies",
    "InvalidHistoryError", "Know", "ModelFormatError", "NestingError", "Not",
    "Profile", "ProofFormatError", "RegularityError", "UndeclaredAgentError",
    "Verdict",
    "VerifyResult", "check_regular",
    "derive_k_superdistributivity_instance",
    "derive_superdistributivity_instance", "evaluate", "evaluate_naive",
    "extensions", "format_formula", "gen_formula", "gen_system", "h_depth",
    "hist_indist", "histories_of_length", "is_tautology",
    "lemma_suite", "load_fixture", "load_system", "match_axiom", "parse",
    "parse_derivation", "parse_history", "profile_agrees", "run_claims",
    "soundness_suite", "state_indist", "uses_empty_coalition", "verify",
    "witness",
]
