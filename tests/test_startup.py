"""What ``import knowhow`` loads, and how a fresh ``knowhow`` process exits.

The tier-1 process has every module loaded already, so the fresh-interpreter
tests run ``python -S`` in a subprocess against this checkout's ``src``.
"""
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import knowhow
from knowhow import checker, cli, fixtures, formula, harness, proofkit, system
from knowhow.fixtures import fixture_text
from knowhow.harness import MAX_HISTORIES, MAX_LEMMA_PAIRS
from knowhow.proofkit import MAX_OPAQUE

SRC = Path(__file__).resolve().parents[1] / "src"
PROBE = Path(__file__).resolve().parent / "startup_probe.py"

HOMES = {
    formula: ("Atom", "Coalition", "Falsum", "Formula", "FormulaSyntaxError",
              "How", "Implies", "Know", "NestingError", "Not", "format_formula",
              "h_depth", "parse", "uses_empty_coalition"),
    system: ("EpistemicTransitionSystem", "History", "InvalidHistoryError",
             "ModelFormatError", "Profile", "check_regular", "extensions",
             "hist_indist", "histories_of_length", "load_system", "parse_history",
             "profile_agrees", "state_indist"),
    checker: ("HorizonError", "RegularityError", "TypeBudgetError",
              "UndeclaredAgentError", "Verdict", "evaluate", "evaluate_naive",
              "witness"),
    proofkit: ("AxiomName", "Derivation", "ProofFormatError", "VerifyResult",
               "derive_k_superdistributivity_instance",
               "derive_superdistributivity_instance", "is_tautology",
               "match_axiom", "parse_derivation", "verify"),
    harness: ("GenParams", "gen_formula", "gen_system", "lemma_suite",
              "soundness_suite"),
    fixtures: ("load_fixture",),
}


def test_every_public_name_is_its_home_modules_object():
    homes = {name: module for module, names in HOMES.items() for name in names}
    assert sorted(homes) == sorted(knowhow.__all__)
    assert len(knowhow.__all__) == 51
    for name, module in homes.items():
        assert getattr(knowhow, name) is getattr(module, name), name


def test_star_import_binds_every_public_name_and_dir_lists_them():
    namespace = {}
    exec("from knowhow import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(knowhow.__all__)
    assert set(knowhow.__all__) <= set(dir(knowhow))
    assert {"proofkit", "harness", "__version__"} <= set(dir(knowhow))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nonesuch'"):
        knowhow.nonesuch
    assert not hasattr(knowhow, "MAX_OPAQUE")  # proofkit's, but not exported
    with pytest.raises(ImportError):
        exec("from knowhow import nonesuch", {})


def _fresh(args, cwd, **env):
    """Run ``python -S args`` with only this checkout's ``src`` importable."""
    return subprocess.run(
        [sys.executable, "-S", *args], cwd=cwd, capture_output=True, text=True,
        timeout=60, env={**os.environ, "PYTHONPATH": str(SRC), **env})


def _run_probe(tmp_path, *args, model="t1.ets"):
    """The probe's check output, its stderr, and its report, run on ``model``."""
    (tmp_path / "t1.ets").write_text(fixture_text("t1"))
    done = _fresh([str(PROBE), str(tmp_path / model), *args], tmp_path)
    assert done.returncode == 0, done.stderr
    *check, last = done.stdout.splitlines()
    report = json.loads(last)
    assert Path(report["file"]).resolve().parent == SRC / "knowhow"
    assert report["registered"] == ["knowhow.harness", "knowhow.proofkit"]
    return check, done.stderr, report


def _probe(tmp_path, *names):
    check, _, report = _run_probe(tmp_path, *names)
    assert "verdict: True" in check and "witness: a=0" in check
    assert report["exit"] == 0
    return report


def test_a_fresh_check_runs_neither_proofkit_nor_harness(tmp_path):
    report = _probe(tmp_path)
    assert report["executed"] == []
    assert report["imported"] == []


@pytest.mark.parametrize("name, executed, imported", [
    # proofkit's records are slotted classes, as the formula nodes are
    ("verify", ["knowhow.proofkit"], []),
    ("ProofFormatError", ["knowhow.proofkit"], []),
    # the harness imports proofkit's schema matcher, hashes its seeds and
    # keeps its dataclasses, which import ``inspect``
    ("lemma_suite", ["knowhow.harness", "knowhow.proofkit"],
     ["dataclasses", "hashlib", "inspect"]),
])
def test_the_first_read_of_a_lazy_name_runs_its_module(tmp_path, name,
                                                       executed, imported):
    report = _probe(tmp_path, name)
    assert (report["executed"], report["imported"]) == (executed, imported)


def test_a_fresh_prove_runs_proofkit_without_dataclasses_or_inspect(tmp_path):
    proof = SRC / "knowhow" / "data" / "proofs" / "positive_introspection.proof"
    done = _fresh([str(PROBE), str(proof)], tmp_path)
    assert done.returncode == 0, done.stderr
    answer, last = done.stdout.splitlines()
    report = json.loads(last)
    assert (answer, report["exit"]) == ("ok", 0)
    assert report["registered"] == ["knowhow.harness", "knowhow.proofkit"]
    assert (report["executed"], report["imported"]) == (["knowhow.proofkit"], [])


@pytest.mark.parametrize("model, text, message", [
    ("t1.ets", "K{zz} p", "formula names undeclared agent 'zz'"),
    ("t1.ets", "p -> $", "unexpected character '$' at offset 5"),
    ("missing.ets", "K{a} p", "[Errno 2] No such file or directory"),
], ids=["undeclared-agent", "stray-character", "missing-model"])
def test_a_fresh_check_that_exits_2_runs_neither_proofkit_nor_harness(
        tmp_path, model, text, message):
    # bad input is an ``InputError`` or an ``OSError``: ``main`` names no
    # error type of a lazy module
    check, err, report = _run_probe(tmp_path, "--formula", text, model=model)
    assert (check, report["exit"]) == ([], 2)
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert (report["executed"], report["imported"]) == ([], [])


def test_every_exception_the_package_defines_is_an_input_error():
    defined = {obj for module in (formula, system, checker, proofkit, harness,
                                  fixtures, cli)
               for obj in vars(module).values()
               if isinstance(obj, type) and issubclass(obj, BaseException)
               and obj.__module__ == module.__name__}
    assert sorted(c.__name__ for c in defined) == [
        "FormulaSyntaxError", "GenParamsError", "HorizonError", "InputError",
        "InvalidHistoryError", "ModelFormatError", "NestingError",
        "OpaqueLimitError", "ProofFormatError", "RegularityError",
        "TypeBudgetError", "UndeclaredAgentError"]
    assert all(issubclass(c, formula.InputError) for c in defined)
    assert issubclass(formula.InputError, ValueError)


def _opaque_proof(tmp_path):
    f = " -> ".join(f"p{i}" for i in range(MAX_OPAQUE + 1))
    (tmp_path / "wide.proof").write_text(f"lines:\n  1: {f}    taut\ngoal: {f}\n")
    return ["prove", "wide.proof"]


def _bad_proof(tmp_path):
    (tmp_path / "bad.proof").write_text("lines:\n  1: q -> qtaut\ngoal: q -> q\n")
    return ["prove", "bad.proof"]


def _long_reference_proof(tmp_path):
    (tmp_path / "long.proof").write_text(
        f"lines:\n  1: p -> p    taut\n  2: p    mp {'9' * 5000} 1\ngoal: p\n")
    return ["prove", "long.proof"]


def _check(formula_text):
    def argv(tmp_path):
        (tmp_path / "t1.ets").write_text(fixture_text("t1"))
        return ["check", "--system", "t1.ets", "--history", "w0",
                "--formula", formula_text]
    return argv


@pytest.mark.parametrize("argv, message", [
    (_check("p -> $"), "unexpected character '$' at offset 5"),
    (_check("K{zz} p"), "formula names undeclared agent 'zz'"),
    (_bad_proof, "line 2: missing or malformed justification"),
    (_opaque_proof, "line 1: too many distinct opaque subformulas (23, limit 22)"),
    (lambda tmp_path: ["fuzz", "--systems", "-1"],
     "system and instance counts must be non-negative"),
    # past MAX_HISTORIES: counted before any history is listed
    (lambda tmp_path: ["fuzz", "--depth", "10"],
     f"a generated system has more than {MAX_HISTORIES} histories of length at most 10"),
    (lambda tmp_path: ["fuzz", "--agents", "12", "--systems", "1"],
     f"a generated system has more than {MAX_HISTORIES} histories of length at most 3"),
    # past MAX_LEMMA_PAIRS: refused after the soundness suite, before the
    # lemma suite lists any level
    (lambda tmp_path: ["fuzz", "--agents", "4", "--systems", "1", "--instances", "1"],
     "a generated system makes 484187 pairs for the lemma suite, more than "
     f"{MAX_LEMMA_PAIRS}: 31989 histories of length at most 3 times 15 nonempty "
     "coalitions, plus 16 coalitions times (4 states squared + 16 complete "
     "profiles squared)"),
    (_long_reference_proof, "line 3: a number of 5000 digits is too long to name a line"),
    # refused before the system is generated
    (lambda tmp_path: ["fuzz", "--states", "120000", "--systems", "1", "--instances", "1"],
     f"a generated system has more than {MAX_HISTORIES} histories of length at most 3"),
    # 2^20000 coalitions: a count too long to print
    (lambda tmp_path: ["fuzz", "--agents", "20000", "--choices", "1", "--states", "1",
                       "--depth", "0", "--systems", "1", "--instances", "1"],
     f"a generated system makes more than {MAX_LEMMA_PAIRS} pairs for the lemma suite: "
     "its 20000 agents form 2^20000 coalitions"),
    (lambda tmp_path: ["fuzz", "--seed", "9" * 4299], "seed must satisfy |seed| < 2**63"),
], ids=["check-syntax", "check-agent", "prove-format", "prove-opaque", "fuzz-systems",
        "fuzz-depth", "fuzz-agents", "fuzz-lemma-pairs", "prove-long-reference",
        "fuzz-states", "fuzz-many-agents", "fuzz-long-seed"])
def test_a_fresh_process_reports_usage_errors_with_exit_2(tmp_path, argv, message):
    start = time.perf_counter()
    done = _fresh(["-c", "import sys; from knowhow.cli import main; "
                         "sys.exit(main(sys.argv[1:]))", *argv(tmp_path)], tmp_path)
    assert time.perf_counter() - start < 5.0
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith(f"error: {message}")
    assert done.stderr.count("\n") == 1
    assert "Traceback" not in done.stderr
