import json
import re
import sys
import time
from pathlib import Path

import pytest

from knowhow import checker, cli, harness, system
from knowhow import formula as formula_module
from knowhow.cli import main
from knowhow.fixtures import fixture_text, proof_text, read_claims
from knowhow.formula import MAX_NESTING, parse
from knowhow.proofkit import MAX_OPAQUE
from knowhow.system import MAX_PROFILES


@pytest.fixture
def t1_path(tmp_path):
    path = tmp_path / "t1.ets"
    path.write_text(fixture_text("t1"))
    return str(path)


def test_check_true_with_witness(t1_path, capsys):
    code = main(["check", "--system", t1_path,
                 "--history", "w0 ; a=1 ; w1", "--formula", "H{a} p"])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict: True" in out
    assert "witness: a=0" in out
    assert "horizon: exact" in out


@pytest.mark.parametrize("formula,verdict,witness", [
    ("H{a} p", 0, "a=0"), ("K{a} p", 1, None),
    ("H{} (p -> p)", 0, "(empty profile)")])
def test_check_evaluates_each_query_once(t1_path, capsys, monkeypatch,
                                         formula, verdict, witness):
    # an H verdict carries its witness, so no second search is needed
    built = []
    init = checker._Evaluator.__init__

    def counting(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(checker._Evaluator, "__init__", counting)
    code = main(["check", "--system", t1_path,
                 "--history", "w0 ; a=1 ; w1", "--formula", formula])
    out = capsys.readouterr().out
    assert code == verdict
    assert len(built) == 1
    if witness is None:
        assert "witness:" not in out
    else:
        assert f"witness: {witness}\n" in out


def test_check_false_exit_code(t1_path, capsys):
    code = main(["check", "--system", t1_path,
                 "--history", "w1", "--formula", "H{a} p"])
    out = capsys.readouterr().out
    assert code == 1
    assert "verdict: False" in out
    assert "witness: none" in out


def test_check_defaults_horizon_for_empty_coalitions(t1_path, capsys):
    code = main(["check", "--system", t1_path,
                 "--history", "w2", "--formula", "K{} (p -> p)"])
    out = capsys.readouterr().out
    assert code == 0
    assert "horizon: 2" in out  # history 0 + nesting 0 + 2
    assert "bounded: yes" in out


def test_check_reports_counterexample(t1_path, capsys):
    code = main(["check", "--system", t1_path,
                 "--history", "w2", "--formula", "K{} p", "--horizon", "3"])
    out = capsys.readouterr().out
    assert code == 1
    assert "counterexample:" in out
    assert "bounded: no" in out


def test_a_closed_walk_answers_as_fast_at_any_horizon(t1_path, capsys):
    # the walk stops once a level brings no new type, so the horizon only
    # changes the reported horizon
    def check(horizon):
        code = main(["check", "--system", t1_path, "--history", "w0",
                     "--formula", "H{} (K{a} p -> p)", "--horizon", str(horizon)])
        return code, capsys.readouterr().out

    near = check(1000)
    start = time.perf_counter()
    code, out = check(10**6)
    assert time.perf_counter() - start < 1.0
    assert "bounded: yes\n" in near[1]
    assert (code, out.replace("horizon: 1000000\n", "horizon: 1000\n")) == near
    assert near[0] == 0


def test_check_bad_formula_is_usage_error(t1_path, capsys):
    code = main(["check", "--system", t1_path,
                 "--history", "w2", "--formula", "p ->"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


# one state looping under one choice: every history level has one member, so
# even a chain of MAX_NESTING know-how operators is cheap to decide
LOOP = "agents: a\nchoices: 0\nstates: w0\ntrans w0 [] w0\nvaluation p: w0\n"


@pytest.mark.parametrize("op", ["H{a} ", "K{} ", "H{} ", "K{a} ", "!"])
def test_check_decides_a_formula_nested_to_the_limit(tmp_path, capsys, op):
    path = tmp_path / "loop.ets"
    path.write_text(LOOP)
    code = main(["check", "--system", str(path), "--history", "w0",
                 "--formula", op * MAX_NESTING + "p"])
    out = capsys.readouterr().out
    assert code in (0, 1)
    assert f"verdict: {code == 0}" in out


@pytest.mark.parametrize("formula", ["K{a} p", "H{a} p"])
def test_check_decides_at_a_history_longer_than_the_recursion_limit(
        tmp_path, capsys, formula):
    # the anchor is parsed and its type folded in loops, one step per level
    path = tmp_path / "loop.ets"
    path.write_text(LOOP)
    history = " ; ".join(["w0"] + ["a=0", "w0"] * 1100)
    code = main(["check", "--system", str(path), "--history", history,
                 "--formula", formula])
    out, err = capsys.readouterr()
    assert code == 0
    assert "verdict: True" in out
    assert "Traceback" not in out + err


def test_check_scans_the_model_for_regularity_once(t1_path, capsys, monkeypatch):
    scans = []
    scan = checker.check_regular

    def counting(ets):
        scans.append(ets)
        return scan(ets)

    monkeypatch.setattr(checker, "check_regular", counting)
    code = main(["check", "--system", t1_path,
                 "--history", "w0 ; a=1 ; w1", "--formula", "H{a} K{} (p -> p)"])
    assert code == 0
    assert "witness: a=0" in capsys.readouterr().out
    assert len(scans) == 1


@pytest.mark.parametrize("formula,horizon", [("H{a} p", []), ("K{} (p -> p)", ["--horizon", "3"])])
def test_check_compares_and_hashes_no_profile(t1_path, capsys, monkeypatch, formula, horizon):
    # moves hold the system's own profiles, and each step is found by votes
    calls = []

    def counting(name):
        method = getattr(system.Profile, name)

        def counted(*args):
            calls.append(name)
            return method(*args)
        return counted

    for name in ("__eq__", "__hash__"):
        monkeypatch.setattr(system.Profile, name, counting(name))
    code = main(["check", "--system", t1_path, "--history", "w0 ; a=1 ; w1",
                 "--formula", formula, *horizon])
    assert code == 0 and "verdict: True" in capsys.readouterr().out
    assert calls == []
    # the counters count
    assert system.Profile(()) == system.Profile(()) and hash(system.Profile(())) == hash(())
    assert calls == ["__eq__", "__hash__"]


def test_check_scans_a_model_that_is_not_regular_once(tmp_path, capsys, monkeypatch):
    scans = []
    scan = checker.check_regular

    def counting(ets):
        scans.append(ets)
        return scan(ets)

    monkeypatch.setattr(checker, "check_regular", counting)
    path = tmp_path / "gap.ets"
    path.write_text("agents: a\nchoices: 0 1\nstates: w0\ntrans w0 [a=0] w0\n")
    code = main(["check", "--system", str(path), "--history", "w0",
                 "--formula", "p"])
    assert code == 2
    assert capsys.readouterr() == (
        "", "error: system is not regular: no successor for state 'w0' under "
            "profile a=1 (1 violations)\n")
    assert len(scans) == 1


def test_check_rejects_a_formula_nested_past_the_limit(t1_path, capsys):
    code = main(["check", "--system", t1_path, "--history", "w2",
                 "--formula", "!" * 5000 + "p"])
    assert code == 2
    assert f"deeper than {MAX_NESTING} levels" in capsys.readouterr().err


# a 4-state model (gen_system seed 3, branching 2.0) whose knowledge types
# grow about fourfold every two modalities of an alternating chain
CHAIN4 = str(Path(__file__).parent / "data" / "chain4.ets")
CHAIN4_ANCHOR = " ; ".join(["s0"] + ["a0=0,a1=0", "s0"] * 3)


def test_check_past_the_type_budget_is_a_usage_error(capsys):
    start = time.perf_counter()
    code = main(["check", "--system", CHAIN4, "--history", CHAIN4_ANCHOR,
                 "--formula", "K{a0} H{a1} " * 7 + "p"])
    assert time.perf_counter() - start < 5.0
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == (f"error: formula needs more than {checker.MAX_TYPE_ENTRIES} "
                   f"knowledge-type entries; nest fewer K/H modalities\n")


def test_missing_file_is_reported(capsys):
    code = main(["check", "--system", "/nonexistent.ets",
                 "--history", "w0", "--formula", "p"])
    assert code == 2


def test_prove_ok_and_failing(tmp_path, capsys):
    good = tmp_path / "good.proof"
    good.write_text(proof_text("how_coalition_widening.proof"))
    assert main(["prove", str(good)]) == 0
    assert capsys.readouterr().out.strip() == "ok"

    bad = tmp_path / "bad.proof"
    bad.write_text(proof_text("bad_cooperation_overlap.proof"))
    assert main(["prove", str(bad)]) == 1
    assert "line 2" in capsys.readouterr().out


def test_a_necessitation_of_line_0_fails_at_its_line(tmp_path, capsys):
    proof = tmp_path / "zero.proof"
    proof.write_text("lines:\n  1: K{a} (p -> p)    nec{a} 0\ngoal: K{a} (p -> p)\n")
    assert main(["prove", str(proof)]) == 1
    assert capsys.readouterr() == ("line 1: bad line reference 0\n", "")


def test_the_parser_is_built_once_per_process(t1_path, tmp_path, capsys,
                                             monkeypatch):
    built = []
    build = cli.build_parser

    def counting():
        built.append(None)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    try:
        assert main(["check", "--system", t1_path, "--history", "w1",
                     "--formula", "H{a} p"]) == 1
        assert "witness: none\n" in capsys.readouterr().out
        good = tmp_path / "good.proof"
        good.write_text(proof_text("how_coalition_widening.proof"))
        assert main(["prove", str(good)]) == 0
        assert capsys.readouterr().out == "ok\n"
        # a handler replaced after the parser was built is the one that runs
        monkeypatch.setattr(cli, "_cmd_prove", lambda args: 7)
        assert main(["prove", str(good)]) == 7
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1


CHECK = ["check", "--system", "m.ets", "--history", "w0 ; a=1 ; w1", "--formula", "H{a} p"]


@pytest.mark.parametrize("argv", [
    # one well-formed line per subcommand
    CHECK, [*CHECK, "--horizon", "3"], ["prove", "f.proof"],
    ["fuzz"], ["fuzz", "--seed", "1", "--systems", "2", "--json"],
    ["examples", "t1"], ["validate", "--system", "m.ets"],
    # --opt=value, abbreviations, order and repeats
    ["check", "--system=m.ets", "--history=w0", "--formula=p", "--horizon=2"],
    ["check", "--sys", "m.ets", "--hist", "w0", "--form", "p", "--hor", "1"],
    ["validate", "--sys=m.ets"], ["fuzz", "--sy", "2", "--j"], ["fuzz", "--s", "1"],
    ["check", "--formula", "p", "--history", "w0", "--system", "m.ets"],
    ["check", "--system", "a.ets", *CHECK[1:], "--system", "m.ets"],
    ["fuzz", "--seed", "1", "--seed", "2", "--depth", "-1"],
    # help at both levels
    ["-h"], ["--help"], ["check", "-h"], ["prove", "--help"], ["fuzz", "-h"],
    ["examples", "--he"], ["validate", "-h", "--bogus"], ["-h", "check"],
    # empty, unknown subcommands and options
    [], ["chek", *CHECK[1:]], ["bogus"], ["--bogus", *CHECK], [*CHECK, "--bogus"],
    [*CHECK, "extra"], ["prove", "f.proof", "g.proof"], ["examples", "t3"],
    ["--", *CHECK],
    # missing or malformed values
    ["check", "--system", "m.ets"], ["check", "--system"], ["validate"], ["prove"],
    [*CHECK, "--horizon", "x"], ["fuzz", "--json=1"],
    # -- and values that start with -
    ["prove", "--", "f.proof"], ["prove", "--", "-f.proof"], [*CHECK[:-1], "--", "p"],
    [*CHECK[:-1], "-p"], [*CHECK[:-1], "-1"], [*CHECK[:-1], "-h"],
    [*CHECK[:-1], "--formula=-p"], [*CHECK[:-1], "- p"], ["prove", "-f.proof"],
])
def test_one_pass_parse_agrees_with_the_full_parser(capsys, argv):
    def outcome(parse):
        try:
            result = parse(list(argv))
        except SystemExit as e:
            result = ("exit", e.code)
        return result, capsys.readouterr()

    assert outcome(cli._parse) == outcome(cli.build_parser().parse_args)


def test_only_a_line_its_subcommand_cannot_take_goes_through_the_full_parser(
        t1_path, tmp_path, capsys, monkeypatch):
    parser, _ = cli._parser()
    calls = []
    full = parser.parse_known_args

    def counting(*args, **kwargs):
        calls.append(args)
        return full(*args, **kwargs)

    monkeypatch.setattr(parser, "parse_known_args", counting)
    good = tmp_path / "good.proof"
    good.write_text(proof_text("how_coalition_widening.proof"))
    check = ["check", "--system", t1_path, "--history", "w0 ; a=1 ; w1",
             "--formula", "H{a} p"]
    for argv, code in [(check, 0), (["prove", str(good)], 0),
                       (["fuzz", "--seed", "1", "--systems", "1", "--instances", "1"], 0),
                       (["validate", "--system", t1_path], 0), (["examples", "t1"], 0)]:
        assert main(argv) == code
    capsys.readouterr()
    assert calls == []
    with pytest.raises(SystemExit) as err:
        main([*check, "--bogus"])
    assert err.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines()[-1] == (
        "knowhow: error: unrecognized arguments: --bogus")
    assert len(calls) == 1
    # with no argv, main reads the process's own command line
    assert main(check) == 0
    answer = capsys.readouterr()
    monkeypatch.setattr(sys, "argv", ["knowhow", *check])
    assert main() == 0
    assert capsys.readouterr() == answer and "verdict: True\n" in answer.out
    monkeypatch.setattr(sys, "argv", ["knowhow", *check, "--bogus"])
    with pytest.raises(SystemExit) as bogus:
        main()
    assert bogus.value.code == 2
    assert capsys.readouterr() == (out, err)
    assert len(calls) == 2


def test_prove_over_the_opaque_cap_is_a_usage_error(tmp_path, capsys):
    f = " -> ".join(f"p{i}" for i in range(MAX_OPAQUE + 1))
    proof = tmp_path / "wide.proof"
    proof.write_text(f"lines:\n  1: {f}    taut\ngoal: {f}\n")
    assert main(["prove", str(proof)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 1: too many distinct opaque subformulas (23, limit 22)")
    assert "Traceback" not in err


EXAMPLES = {
    "t1": (
        "PASS  fresh start in w2 leaves p unknown: (w2) |- K{a} p -> False\n"
        "PASS  one remembered step from w1 still leaves p unknown: "
        "(w1 ; a=0 ; w2) |- K{a} p -> False\n"
        "PASS  the full run from w0 pins p down: "
        "(w0 ; a=1 ; w1 ; a=0 ; w2) |- K{a} p -> True\n"
        "PASS  no single instruction reaches p from both w1 and w1': "
        "(w1) |- H{a} p -> False; (w1') |- H{a} p -> False\n"
        "PASS  after w0 -> w1 the same instruction 0 works everywhere: "
        "(w0 ; a=1 ; w1) |- H{a} p -> True\n"
        "PASS  from w0 the agent knows how to reach a position of knowing how: "
        "(w0) |- H{a} H{a} p -> True\n"
        "6/6 claims pass\n"),
    "t2": (
        "PASS  a and b jointly know how to reach p: (w0) |- H{a,b} p -> True\n"
        "PASS  a alone cannot tell w0 from w1, so no know-how: "
        "(w0) |- H{a} p -> False\n"
        "PASS  b alone cannot tell w0 from w2, so no know-how: "
        "(w0) |- H{b} p -> False\n"
        "3/3 claims pass\n"),
}


def test_examples_commands(capsys):
    for fixture, expected in EXAMPLES.items():
        assert main(["examples", fixture]) == 0
        assert capsys.readouterr() == (expected, "")


def test_the_bundled_claim_lists_read_back_whole():
    for name, claims, checks in (("t1", 6, 7), ("t2", 3, 3)):
        read = read_claims(fixture_text(name, ".claims"))
        assert (len(read), sum(len(c) for _, c in read)) == (claims, checks)
    # one claim may pin a formula at several histories
    assert read_claims(fixture_text("t1", ".claims"))[3][1] == [
        ("w1", "H{a} p", False), ("w1'", "H{a} p", False)]


def _examples_with_claims(capsys, monkeypatch, text):
    """Exit code and output of ``knowhow examples t1`` over the claim list ``text``."""
    monkeypatch.setattr(cli, "fixture_text", lambda name, suffix: text)
    code = main(["examples", "t1"])
    return code, capsys.readouterr()


def test_examples_report_a_failing_claim(capsys, monkeypatch):
    # a claim whose expected value is wrong fails, and so does the run
    code, (out, err) = _examples_with_claims(capsys, monkeypatch, (
        "claim: the run to w1 forces p\n"
        "  w0 ; a=1 ; w1 | H{a} p | true\n"
        "claim: wrongly expected to fail   # comments end a line\n"
        "  w0 ; a=1 ; w1 | H{a} p | false\n"
        "\n"
        "  w2 | K{a} p | false\n"))
    assert (code, err) == (1, "")
    assert out == (
        "PASS  the run to w1 forces p: (w0 ; a=1 ; w1) |- H{a} p -> True\n"
        "FAIL  wrongly expected to fail: (w0 ; a=1 ; w1) |- H{a} p -> True; "
        "(w2) |- K{a} p -> False\n"
        "1/2 claims pass\n")


@pytest.mark.parametrize("text, message", [
    ("claim: x\n  w0 | p\n", "line 2: expected 'history | formula | true|false'"),
    ("claim: x\n  w0 | p | true | false\n",
     "line 2: expected 'history | formula | true|false'"),
    ("claim: x\n  w0 |  | true\n", "line 2: expected 'history | formula | true|false'"),
    ("claim: x\n\n  w0 | p | yes\n", "line 3: expected value 'yes' is not true or false"),
    ("claim: x\n  w0 | p | True\n", "line 2: expected value 'True' is not true or false"),
    ("# header\n  w0 | p | true\n", "line 2: check before any 'claim:' line"),
    ("claim:   \n  w0 | p | true\n", "line 1: claim has no label"),
    ("claim: x\nclaim: y\n  w0 | p | true\n", "line 1: claim 'x' has no checks"),
    ("claim: x\n  w0 | p | true\nclaim: y\n", "line 3: claim 'y' has no checks"),
], ids=["missing-field", "extra-field", "empty-field", "yes", "capitalised",
        "no-claim", "no-label", "no-checks", "last-no-checks"])
def test_a_malformed_claim_line_is_a_usage_error(capsys, monkeypatch, text, message):
    with pytest.raises(formula_module.InputError, match=re.escape(message)):
        read_claims(text)
    code, (out, err) = _examples_with_claims(capsys, monkeypatch, text)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("text, out, message", [
    ("claim: demo\n# comment\nw0 | p -> $ | true\n", "",
     "line 3: unexpected character '$' at offset 5"),
    # a claim answered before the bad one is still reported
    ("claim: fine\n  w2 | K{a} p | false\nclaim: bad history\n"
     "  w2 | p | true\n  w0 ; a=7 ; w1 | p | true\n",
     "PASS  fine: (w2) |- K{a} p -> False\n", "line 5: undeclared choice '7'"),
], ids=["formula", "history"])
def test_examples_name_the_line_of_a_bad_check(capsys, monkeypatch, text, out, message):
    code, captured = _examples_with_claims(capsys, monkeypatch, text)
    assert (code, captured.out, captured.err) == (2, out, f"error: {message}\n")


@pytest.mark.parametrize("command", [
    ["prove", "{path}"], ["check", "--system", "{path}", "--history", "w0",
                          "--formula", "p"], ["validate", "--system", "{path}"]])
def test_a_file_that_is_not_utf8_is_a_usage_error(tmp_path, capsys, command):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"agents: a\xff\n")
    code = main([arg.format(path=path) for arg in command])
    out, err = capsys.readouterr()
    assert code == 2
    assert err.startswith("error: 'utf-8' codec can't decode byte 0xff")
    assert "Traceback" not in out + err


def _answers(tmp_path, capsys, model, proof):
    """Exit codes and output of ``check`` on a model and ``prove`` on a
    proof, both written byte for byte."""
    out = []
    for name, text in (("model.ets", model), ("derivation.proof", proof)):
        path = tmp_path / name
        path.write_bytes(text.encode("utf-8"))
        code = main(["check", "--system", str(path), "--history", "w0 ; a=1 ; w1",
                     "--formula", "H{a} p"] if name == "model.ets"
                    else ["prove", str(path)])
        out.append((code, capsys.readouterr()))
    return out


@pytest.mark.parametrize("prefix,newline", [
    ("\ufeff", "\n"), ("", "\r\n"), ("", "\r"), ("\ufeff", "\r\n")],
    ids=["bom", "crlf", "cr", "bom-crlf"])
def test_a_byte_order_mark_and_line_ends_change_no_answer(tmp_path, capsys,
                                                          prefix, newline):
    model, proof = fixture_text("t1"), proof_text("positive_introspection.proof")
    plain = _answers(tmp_path, capsys, model, proof)
    assert [code for code, _ in plain] == [0, 0]
    assert plain[1][1] == ("ok\n", "")
    assert _answers(tmp_path, capsys, prefix + model.replace("\n", newline),
                    prefix + proof.replace("\n", newline)) == plain


def test_only_one_byte_order_mark_is_dropped(tmp_path, capsys):
    # the second one stays on the first line, which is otherwise a comment
    model, proof = _answers(
        tmp_path, capsys, "\ufeff\ufeff" + fixture_text("t1"),
        "\ufeff\ufeff" + proof_text("positive_introspection.proof"))
    assert model == (2, ("", "error: line 1: unrecognized line '\\ufeff'\n"))
    assert proof == (2, ("", "error: line 1: unexpected content '\\ufeff'\n"))


@pytest.mark.parametrize("command", [
    ["prove", "{path}"], ["check", "--system", "{path}", "--history", "w0",
                          "--formula", "p"], ["validate", "--system", "{path}"]])
def test_the_not_utf8_error_names_the_file(tmp_path, capsys, command):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"agents: a\xff\n")
    assert main([arg.format(path=path) for arg in command]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: 'utf-8' codec can't decode byte 0xff")
    assert err.rstrip("\n").endswith(f" in {path}")


@pytest.mark.parametrize("formula", ["K{zz} p", "H{zz} p", "K{a,zz} p",
                                     "p -> H{a} K{} K{zz} q"])
def test_a_formula_naming_an_undeclared_agent_is_a_usage_error(t1_path, capsys,
                                                                formula):
    code = main(["check", "--system", t1_path, "--history", "w0",
                 "--formula", formula, "--horizon", "3"])
    assert code == 2
    assert capsys.readouterr() == (
        "", "error: formula names undeclared agent 'zz'\n")


@pytest.mark.parametrize("formula", ["H{a} p", "K{a} p", "!H{a} K{a} p",
                                     "H{} (p -> p)", "K{} (K{a} p -> p)"])
def test_check_folds_the_formula_at_most_twice(t1_path, capsys, monkeypatch,
                                               formula):
    # once for what the preconditions read (nesting, h_depth, empty
    # coalitions, agents), once to print the ``formula:`` line
    folds = []
    fold = formula_module._fold

    def counting(f, combine):
        folds.append(combine)
        return fold(f, combine)

    monkeypatch.setattr(formula_module, "_fold", counting)
    main(["check", "--system", t1_path, "--history", "w0 ; a=1 ; w1",
          "--formula", formula])
    assert f"formula: {formula}\n" in capsys.readouterr().out
    assert 1 <= len(folds) <= 2


@pytest.mark.parametrize("line,message", [
    ("1: q -> qtaut", "line 2: missing or malformed justification"),
    ("1: p -> ximp 1 2", "line 2: missing or malformed justification"),
    ("\u00b2: p -> p    taut", "line 2: expected 'N: formula justification'")])
def test_misread_proof_lines_are_usage_errors(tmp_path, capsys, line, message):
    path = tmp_path / "bad.proof"
    path.write_text(f"lines:\n  {line}\ngoal: q -> q\n", encoding="utf-8")
    assert main(["prove", str(path)]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {message}\n")


_MODEL = ("agents: a b\nchoices: 0 1\nstates: w0 w1\n"
          "trans w0 [] w1\ntrans w1 [] w0\nvaluation p: w0\n")


@pytest.mark.parametrize("text,message", [
    ("agents: a$\n", "line 1: bad token 'a$'"),
    ("states: 0w\n", "line 1: state name '0w' must start with a letter or underscore"),
    ("agents: a a\n", "line 1: duplicate name in 'agents' declaration"),
    ("choices:\n", "line 1: 'choices' declaration is empty"),
    (_MODEL + "indist a w0 w1\n", "line 7: expected ':' in indist line"),
    (_MODEL + "indist a: w0 w1 |\n", "line 7: empty indist block"),
    (_MODEL + "indist a: w0 w9\n", "line 7: undeclared state 'w9'"),
    # a repeat within one block is no overlap; one in another block is
    (_MODEL + "indist a: w0 w0 w1 | w0\n",
     "line 7: state 'w0' appears in two indist blocks for agent 'a'"),
    (_MODEL + "indist a: w0 w1\nindist b: w0\nindist a: w1\n",
     "line 9: state 'w1' appears in two indist blocks for agent 'a'"),
    (_MODEL + "valuation q w0\n", "line 7: expected ':' in valuation line"),
    (_MODEL + "valuation 1q: w0\n", "line 7: bad proposition token '1q'"),
    (_MODEL + "trans w0 w1\n", "line 7: expected 'trans STATE [pattern] STATE'"),
    (_MODEL + "trans w0 [a] w1\n", "line 7: bad vote 'a', expected agent=choice"),
    (_MODEL + "trans w0 [a=0, a=1] w1\n", "line 7: agent 'a' listed twice"),
    (_MODEL + "frobnicate\n", "line 7: unrecognized line 'frobnicate'"),
    # a keyword is followed by any whitespace, and only then read as one
    (_MODEL + "transx w0 [] w1\n", "line 7: unrecognized line 'transx w0 [] w1'"),
    (_MODEL + "indistx a: w0\n", "line 7: unrecognized line 'indistx a: w0'"),
    (_MODEL + "trans\n", "line 7: unrecognized line 'trans'"),
    (_MODEL + "trans\tw0\tw1\n", "line 7: expected 'trans STATE [pattern] STATE'"),
    (_MODEL + "indist\ta w0 w1\n", "line 7: expected ':' in indist line"),
    (_MODEL + "valuation\tq w0\n", "line 7: expected ':' in valuation line"),
    (_MODEL + "valuation\t1q: w0\n", "line 7: bad proposition token '1q'"),
    # no formula can name an agent or an atom ``true`` or ``false``
    ("agents: a false\n", "line 1: agent name 'false' is reserved"),
    ("choices: 0\nagents: true\n", "line 2: agent name 'true' is reserved"),
    (_MODEL + "valuation false: w0\n", "line 7: proposition name 'false' is reserved"),
    (_MODEL + "valuation true: w1\n", "line 7: proposition name 'true' is reserved")])
def test_model_file_errors_are_usage_errors(tmp_path, capsys, text, message):
    path = tmp_path / "bad.ets"
    path.write_text(text)
    assert main(["check", "--system", str(path), "--history", "w0",
                 "--formula", "p"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


# (a vertical tab or form feed ends a line)
@pytest.mark.parametrize("separator", ["\t", "  ", " \t ", "\u00a0"])
def test_any_whitespace_may_follow_a_model_keyword(tmp_path, capsys, separator):
    model = _MODEL + "indist a: w0 w1\n"
    outputs = []
    for name, text in (("spaces.ets", model),
                       ("other.ets", re.sub(r"^(trans|indist|valuation) ",
                                            lambda m: m[1] + separator, model,
                                            flags=re.M))):
        assert name == "spaces.ets" or text.count(separator) == 4
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        code = main(["check", "--system", str(path), "--history",
                     "w0 ; a=0,b=1 ; w1", "--formula", "K{a} p"])
        outputs.append((code, capsys.readouterr()))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 1 and "verdict: False" in outputs[0][1].out


@pytest.mark.parametrize("history,message", [
    ("w0 ; a=0,b=0", "history literal must alternate states and profiles, "
                     "ending in a state"),
    ("w$", "bad state token 'w$'"),
    ("w9", "undeclared state 'w9'"),
    ("w0 ; a0 ; w1", "bad vote 'a0', expected agent=choice"),
    ("w0 ; c=0,a=0 ; w1", "undeclared agent 'c'"),
    ("w0 ; a=2,b=0 ; w1", "undeclared choice '2'"),
    ("w0 ; a=0,a=1 ; w1", "agent 'a' listed twice"),
    ("w0 ; a=0 ; w1", "profile misses agent 'b'; history literals need complete "
                      "profiles"),
    ("w0 ; a=0,b=0 ; w0", "(w0 ; a=0,b=0 ; w0) is not a mechanism transition")])
def test_history_literal_errors_are_usage_errors(tmp_path, capsys, history, message):
    path = tmp_path / "model.ets"
    path.write_text(_MODEL)
    assert main(["check", "--system", str(path), "--history", history,
                 "--formula", "p"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


_NEC = "lines:\n  1: p -> p    taut\n  2: K{a} (p -> p)    nec{%s} 1\ngoal: p -> p\n"


@pytest.mark.parametrize("text,message", [
    (_NEC % "a$", "line 3: bad agent token 'a$'"),
    (_NEC % "a, a", "line 3: duplicate agent in coalition"),
    (_NEC % "a" + "goal: p -> p\n", "line 5: duplicate goal"),
    ("hypotheses:\n  h p\n" + _NEC % "a", "line 2: expected 'label: formula'"),
    ("hypotheses:\n  h: p\n  h: q\n" + _NEC % "a",
     "line 3: duplicate hypothesis label 'h'"),
    ("p -> p\n" + _NEC % "a", "line 1: unexpected content 'p -> p'"),
    ("goal: p -> p\n", "missing lines section"),
    # the constants' words name no agent
    (_NEC % "a, true", "line 3: bad agent token 'true'"),
    (_NEC.replace("nec{", "snec{") % "false", "line 3: bad agent token 'false'")])
def test_proof_file_errors_are_usage_errors(tmp_path, capsys, text, message):
    path = tmp_path / "bad.proof"
    path.write_text(text)
    assert main(["prove", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_validate_regular_and_broken(t1_path, tmp_path, capsys):
    assert main(["validate", "--system", t1_path]) == 0
    assert "regular" in capsys.readouterr().out

    broken = tmp_path / "broken.ets"
    broken.write_text("agents: a\nchoices: 0 1\nstates: w0\ntrans w0 [a=0] w0\n")
    assert main(["validate", "--system", str(broken)]) == 1
    assert capsys.readouterr() == (
        "agents: 1  states: 1  choices: 2  transitions: 1\n"
        "not regular: 1 state/profile pairs lack a successor\n"
        "  w0 [a=1]\n", "")


def test_fuzz_small_run(capsys):
    code = main(["fuzz", "--seed", "3", "--systems", "2", "--instances", "2",
                 "--states", "3", "--depth", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "violations=0" in out
    assert "failures=0" in out


def test_fuzz_json_report(capsys):
    code = main(["fuzz", "--seed", "3", "--systems", "1", "--instances", "1",
                 "--states", "2", "--depth", "2", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["soundness"]["violations"] == []
    assert payload["lemmas"]["failures"] == []


def test_fuzz_json_names_the_guard_rejections_it_fails_on(capsys, monkeypatch):
    # a matcher that recognises no schema rejects every generated instance
    monkeypatch.setattr(harness, "match_axiom", lambda f: frozenset())
    code = main(["fuzz", "--json", "--systems", "1", "--instances", "1"])
    assert code == 1
    sound = json.loads(capsys.readouterr().out)["soundness"]
    assert sound["violations"] == []
    rejected = sound["guard_rejections"]
    assert len(rejected) == sound["instances"] == len(harness.AxiomName)
    assert [r["schema"] for r in rejected] == [name.value for name in harness.AxiomName]
    for r in rejected:
        assert r.keys() == {"system_seed", "schema", "formula"}
        assert r["system_seed"] == 0 and parse(r["formula"])


# one agent on one state at depth 0: every failure names history s0
SMALL_FUZZ = ["fuzz", "--agents", "1", "--states", "1", "--depth", "0",
              "--systems", "1", "--instances", "1"]


def _failing_fuzz(capsys):
    """Exit code and stdout of the small text ``fuzz``, which checks that
    its reports print as their ``str``."""
    code = main(SMALL_FUZZ)
    out, err = capsys.readouterr()
    params = harness.GenParams(seed=0, num_states=1, num_agents=1, history_depth=0)
    sound = harness.soundness_suite(params, num_systems=1, num_instances=1)
    lemmas = harness.lemma_suite(params, num_systems=1)
    assert (err, out) == ("", f"{sound}\n{lemmas}\n")
    return code, out.splitlines()


def test_fuzz_prints_each_guard_rejection(capsys, monkeypatch):
    monkeypatch.setattr(harness, "match_axiom", lambda f: frozenset())
    code, lines = _failing_fuzz(capsys)
    assert code == 1
    assert lines == [
        "soundness: seed=0 systems=1 instances=9 bounded=0 violations=0",
        "  GUARD seed=0 Truth: K{a0} K{a0} q -> K{a0} q",
        "  GUARD seed=0 NegativeIntrospection: !K{a0} p -> K{a0} !K{a0} p",
        "  GUARD seed=0 Distributivity: K{a0} (p -> p) -> K{a0} p -> K{a0} p",
        "  GUARD seed=0 Monotonicity: K{a0} (q -> q) -> K{a0} (q -> q)",
        "  GUARD seed=0 StrategicPositiveIntrospection: H{a0} q -> K{a0} H{a0} q",
        "  GUARD seed=0 Cooperation: H{} (p -> q) -> H{a0} p -> H{a0} q",
        "  GUARD seed=0 EmptyCoalition: K{} K{a0} p -> H{} K{a0} p",
        "  GUARD seed=0 PerfectRecall: H{a0} H{a0} q -> H{a0} K{a0} H{a0} q",
        "  GUARD seed=0 UnachievabilityOfFalsehood: !H{a0} false",
        "lemmas: seed=0 systems=1 relation_checks=12 property_checks=40 failures=0"]


def test_fuzz_prints_each_violation_and_failing_law(capsys, monkeypatch):
    # both evaluators refute everything, so the oracle confirms each False
    monkeypatch.setattr(harness, "evaluate", lambda *args: checker.Verdict(False))
    monkeypatch.setattr(harness, "evaluate_naive", lambda *args: checker.Verdict(False))
    code, lines = _failing_fuzz(capsys)
    assert code == 1
    assert lines[:15] == [
        "soundness: seed=0 systems=1 instances=9 bounded=0 violations=9",
        "  VIOLATION seed=0 Truth: K{a0} K{a0} q -> K{a0} q at (s0)",
        "  VIOLATION seed=0 NegativeIntrospection: !K{a0} p -> K{a0} !K{a0} p at (s0)",
        "  VIOLATION seed=0 Distributivity: K{a0} (p -> p) -> K{a0} p -> K{a0} p at (s0)",
        "  VIOLATION seed=0 Monotonicity: K{a0} (q -> q) -> K{a0} (q -> q) at (s0)",
        "  VIOLATION seed=0 StrategicPositiveIntrospection: H{a0} q -> K{a0} H{a0} q "
        "at (s0)",
        "  VIOLATION seed=0 Cooperation: H{} (p -> q) -> H{a0} p -> H{a0} q at (s0)",
        "  VIOLATION seed=0 EmptyCoalition: K{} K{a0} p -> H{} K{a0} p at (s0)",
        "  VIOLATION seed=0 PerfectRecall: H{a0} H{a0} q -> H{a0} K{a0} H{a0} q at (s0)",
        "  VIOLATION seed=0 UnachievabilityOfFalsehood: !H{a0} false at (s0)",
        "lemmas: seed=0 systems=1 relation_checks=12 property_checks=40 failures=40",
        "  FAILURE system 0: strategic positive introspection fails: "
        "H{a0} q -> K{a0} H{a0} q at (s0)",
        "  FAILURE system 0: strategic negative introspection fails: "
        "!H{a0} q -> K{a0} !H{a0} q at (s0)",
        "  FAILURE system 0: know-how widens to supersets fails: "
        "H{a0} q -> H{a0} q at (s0)",
        "  FAILURE system 0: perfect recall fails: H{a0} q -> H{a0} K{a0} q at (s0)"]
    assert len(lines) == 51
    assert all(re.fullmatch(r"  FAILURE system 0: [a-z -]+ fails: .+ at \(s0\)", line)
               for line in lines[11:]), lines


def test_fuzz_prints_an_empty_coalition_that_distinguishes(capsys, monkeypatch):
    related = harness.hist_indist
    monkeypatch.setattr(harness, "hist_indist",
                        lambda ets, h1, h2, c: bool(c) and related(ets, h1, h2, c))
    code, lines = _failing_fuzz(capsys)
    assert code == 1
    assert lines[-2:] == [
        "lemmas: seed=0 systems=1 relation_checks=12 property_checks=40 failures=1",
        "  FAILURE system 0: empty coalition distinguished two histories"]


@pytest.mark.parametrize("flag,value", [
    ("--states", "0"), ("--agents", "0"), ("--choices", "0"), ("--depth", "-1"),
    ("--agents", "30"), ("--systems", "-1"),
    ("--instances", "-3")])
def test_fuzz_bad_parameters_are_usage_errors(capsys, flag, value):
    code = main(["fuzz", "--systems", "1", "--instances", "1", flag, value])
    out, err = capsys.readouterr()
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in out + err


@pytest.mark.parametrize("flag", ["--horizon", "--formula-depth"])
def test_fuzz_takes_no_horizon_option(capsys, flag):
    # the soundness suite derives each horizon from the instance it checks
    with pytest.raises(SystemExit) as err:
        main(["fuzz", flag, "3"])
    assert err.value.code == 2


@pytest.mark.parametrize("agents", ["7", "8"])
def test_fuzz_past_the_lemma_pair_cap_is_refused_before_any_key_check(
        capsys, monkeypatch, agents):
    # their complete profiles give 2.1M and 16.8M key pairs
    def unchecked(*args):
        raise AssertionError("checked a relation against its key")

    monkeypatch.setattr(harness, "_check_relation_keys", unchecked)
    start = time.perf_counter()
    code = main(["fuzz", "--states", "1", "--depth", "0", "--systems", "1",
                 "--instances", "1", "--agents", agents])
    assert time.perf_counter() - start < 5.0
    out, err = capsys.readouterr()
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "pairs for the lemma suite" in err
    assert "Traceback" not in out + err


@pytest.mark.parametrize("shape, key_pairs", [
    (["--states", "200"], 4 * (200 ** 2 + 4 ** 2)),
    (["--agents", "6", "--states", "1", "--depth", "0"], 64 * (1 + 64 ** 2))])
def test_fuzz_checks_many_states_or_profiles_against_their_keys(capsys, shape,
                                                                key_pairs):
    # 160k state pairs and 262k profile pairs, each asked once, stay under
    # the lemma suite's cap
    code = main(["fuzz", "--json", "--systems", "1", "--instances", "1", *shape])
    lemmas = json.loads(capsys.readouterr().out)["lemmas"]
    assert code == 0
    assert lemmas["failures"] == []
    assert lemmas["relation_checks"] > key_pairs


def _wildcard_model(agents: int) -> str:
    names = " ".join(f"a{i}" for i in range(agents))
    return f"agents: {names}\nchoices: 0 1\nstates: w0\ntrans w0 [] w0\nvaluation p: w0\n"


@pytest.mark.parametrize("command", [
    ["validate"], ["check", "--history", "w0", "--formula", "H{a0} p"]])
def test_a_model_over_the_profile_cap_fails_fast(tmp_path, capsys, command):
    path = tmp_path / "wide.ets"
    path.write_text(_wildcard_model(26))
    start = time.perf_counter()
    code = main([command[0], "--system", str(path), *command[1:]])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    err = capsys.readouterr().err
    assert f"2 choices for 26 agents make more than {MAX_PROFILES}" in err


def test_a_model_at_the_profile_cap_loads(tmp_path, capsys):
    assert 2 ** 12 == MAX_PROFILES
    path = tmp_path / "wide.ets"
    path.write_text(_wildcard_model(12))
    assert main(["validate", "--system", str(path)]) == 0
    assert f"transitions: {MAX_PROFILES}" in capsys.readouterr().out
    assert main(["check", "--system", str(path), "--history", "w0",
                 "--formula", "H{a0,a1} p"]) == 0
    assert "witness: a0=0,a1=0\n" in capsys.readouterr().out


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["check", "--system"])
    assert err.value.code == 2
