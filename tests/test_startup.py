"""What ``import knowhow`` loads, and how a fresh ``knowhow`` process exits.

The tier-1 process has every module loaded already, so the fresh-interpreter
tests run ``python -S`` in a subprocess against this checkout's ``src``.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import knowhow
from knowhow import checker, fixtures, formula, harness, proofkit, system
from knowhow.fixtures import fixture_text
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
    checker: ("HorizonError", "RegularityError", "UndeclaredAgentError",
              "Verdict", "evaluate", "evaluate_naive", "witness"),
    proofkit: ("AxiomName", "Derivation", "ProofFormatError", "VerifyResult",
               "derive_k_superdistributivity_instance",
               "derive_superdistributivity_instance", "is_tautology",
               "match_axiom", "parse_derivation", "verify"),
    harness: ("GenParams", "gen_formula", "gen_system", "lemma_suite",
              "soundness_suite"),
    fixtures: ("load_fixture", "run_claims"),
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


def _probe(tmp_path, *names):
    model = tmp_path / "t1.ets"
    model.write_text(fixture_text("t1"))
    done = _fresh([str(PROBE), str(model), *names], tmp_path)
    assert done.returncode == 0, done.stderr
    *check, last = done.stdout.splitlines()
    assert "verdict: True" in check and "witness: a=0" in check
    report = json.loads(last)
    assert report["exit"] == 0
    assert Path(report["file"]).resolve().parent == SRC / "knowhow"
    assert report["registered"] == ["knowhow.harness", "knowhow.proofkit"]
    return report


def test_a_fresh_check_runs_neither_proofkit_nor_harness(tmp_path):
    report = _probe(tmp_path)
    assert report["executed"] == []
    assert report["imported"] == []


@pytest.mark.parametrize("name, executed, imported", [
    ("verify", ["knowhow.proofkit"], []),
    ("ProofFormatError", ["knowhow.proofkit"], []),
    # the harness imports proofkit's schema matcher, and hashes its seeds
    ("lemma_suite", ["knowhow.harness", "knowhow.proofkit"], ["hashlib"]),
])
def test_the_first_read_of_a_lazy_name_runs_its_module(tmp_path, name,
                                                       executed, imported):
    report = _probe(tmp_path, name)
    assert (report["executed"], report["imported"]) == (executed, imported)


def _opaque_proof(tmp_path):
    f = " -> ".join(f"p{i}" for i in range(MAX_OPAQUE + 1))
    (tmp_path / "wide.proof").write_text(f"lines:\n  1: {f}    taut\ngoal: {f}\n")
    return ["prove", "wide.proof"]


def _bad_proof(tmp_path):
    (tmp_path / "bad.proof").write_text("lines:\n  1: q -> qtaut\ngoal: q -> q\n")
    return ["prove", "bad.proof"]


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
], ids=["check-syntax", "check-agent", "prove-format", "prove-opaque", "fuzz-systems"])
def test_a_fresh_process_reports_usage_errors_with_exit_2(tmp_path, argv, message):
    # main's error tuple names proofkit's and harness's error types, so
    # reaching it runs those modules from their unexecuted state
    done = _fresh(["-c", "import sys; from knowhow.cli import main; "
                         "sys.exit(main(sys.argv[1:]))", *argv(tmp_path)], tmp_path)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith(f"error: {message}")
    assert done.stderr.count("\n") == 1
    assert "Traceback" not in done.stderr
