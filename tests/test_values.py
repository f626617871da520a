"""Value semantics of the immutable classes on the check and prove paths:
formula nodes, ``Profile``, ``History``, ``Verdict`` and ``Measures``, and
proofkit's records (a ``Line``, its ``Justification``, a ``Derivation`` and
a ``VerifyResult``).

They are plain ``__slots__`` classes, so these tests pin what the frozen
dataclasses they replaced gave: structural equality within a class,
hashing, the exact ``repr``, keyword construction, defaults, copies and
pickles, and refused assignment.  Profiles have no order.
"""
import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import knowhow
from knowhow.checker import Verdict
from knowhow.formula import (
    TOP, Atom, Falsum, How, Implies, Know, Measures, Not, measures, parse,
)
from knowhow.proofkit import (
    AxiomInstance, AxiomName, Derivation, Hypothesis, Justification, Line,
    ModusPonens, Necessitation, StrategicNecessitation, Tautology, VerifyResult,
    verify,
)
from knowhow.system import EpistemicTransitionSystem, History, Profile

a = frozenset({"a"})
ab = frozenset({"a", "b"})
p, q = Atom("p"), Atom("q")

NODES = [Falsum(), p, Not(p), Implies(p, q), Know(a, p), How(a, p)]


def _proof_records():
    """One of each proofkit record, built afresh on each call."""
    cited = Hypothesis(0, "h1")
    return [Tautology(), AxiomInstance(AxiomName.TRUTH), ModusPonens(1, 2),
            Necessitation(1, a), StrategicNecessitation(1, a), cited,
            Line(p, cited), Derivation((("h1", p),), (Line(p, cited),), p),
            VerifyResult(True), VerifyResult(False, 3, "mode violation")]


def _values():
    h = History(("w0", "w1"), (Profile.of({"a": "1"}),))
    return [*NODES, Profile.of({"a": "0"}), h, Verdict(False, True, 4, h),
            *_proof_records()]


def test_nodes_equal_within_their_class_and_never_across_classes():
    assert parse("K{b,a} !p -> H{} (false -> true)") == Implies(
        Know(ab, Not(p)), How(frozenset(), Implies(Falsum(), TOP)))
    assert Falsum() == Falsum() and Not(Falsum()) == TOP
    assert p != q and Implies(p, q) != Implies(q, p) and Know(a, p) != Know(ab, p)
    for i, x in enumerate(NODES):
        for j, y in enumerate(NODES):
            assert (x == y) is (i == j), (x, y)
    # Know and How with the same operands differ; a node is not its name
    assert Know(a, p) != How(a, p) and p != "p" and Falsum() != ()


def test_node_hashes_fold_the_operands_hashes():
    assert hash(Falsum()) == hash("Falsum")
    assert hash(p) == hash(("Atom", "p"))
    assert hash(Not(p)) == hash(("Not", hash(p)))
    assert hash(Implies(p, q)) == hash(("Implies", hash(p), hash(q)))
    assert hash(Know(a, p)) == hash(("Know", a, hash(p)))
    assert hash(How(a, p)) == hash(("How", a, hash(p)))
    assert hash(parse("H{b,a} (p -> q)")) == hash(How(ab, Implies(p, q)))


def test_profiles_hash_by_their_votes_and_have_no_order():
    low, high = Profile.of({"a": "0"}), Profile.of({"a": "1"})
    assert hash(low) == hash(low.votes) and low == Profile((("a", "0"),)) != high
    # a profile is not its votes, and equals no value of another class
    assert low != low.votes and low.__eq__(low.votes) is NotImplemented
    assert all(low != x for x in _values() if type(x) is not Profile)
    for other in (high, low.votes):
        with pytest.raises(TypeError):
            low < other
    # complete profiles are listed in votes order, which compares choices
    # as strings: "10" before "2"
    ets = EpistemicTransitionSystem(["b", "a"], ["w"], map(str, range(11)), {}, (), {})
    votes = [s.votes for s in ets.complete_profiles]
    assert len(votes) == 121 and votes == sorted(votes)
    assert votes[:3] == [(("a", "0"), ("b", "0")), (("a", "0"), ("b", "1")),
                         (("a", "0"), ("b", "10"))]


def test_the_repr_names_every_field():
    h = History(("w0", "w1"), (Profile.of({"a": "1"}),))
    assert repr(Profile.of({"b": "1", "a": "0"})) == "Profile(votes=(('a', '0'), ('b', '1')))"
    assert repr(Verdict(False, True, 4, h)) == (
        "Verdict(value=False, bounded=True, horizon_used=4, counterexample="
        "History(states=('w0', 'w1'), profiles=(Profile(votes=(('a', '1'),)),)), "
        "strategy=None)")
    assert repr(Verdict(True, strategy=Profile.of({"a": "0"}))) == (
        "Verdict(value=True, bounded=False, horizon_used=0, counterexample=None, "
        "strategy=Profile(votes=(('a', '0'),)))")
    assert repr(parse("K{a} !p -> false")) == (
        "Implies(Know({'a'}, Not(Atom('p'))), Falsum())")


def test_verdicts_compare_and_hash_by_their_fields():
    v = Verdict(True, strategy=Profile.of({"a": "0"}))
    assert v == Verdict(True, False, 0, None, Profile.of({"a": "0"}))
    assert hash(v) == hash(Verdict(True, strategy=Profile.of({"a": "0"})))
    assert v != Verdict(True) and Verdict(True) != Verdict(True, horizon_used=1)
    assert bool(v) and not Verdict(False)


def test_proof_records_equal_within_their_class_and_never_across_classes():
    for i, x in enumerate(_proof_records()):
        for j, y in enumerate(_proof_records()):
            assert (x == y) is (i == j), (x, y)
            assert (x != y) is (i != j), (x, y)
    # the two necessitations hold the same fields but are different rules
    assert Necessitation(1, a) != StrategicNecessitation(1, a)
    assert Necessitation(1, a).__eq__(StrategicNecessitation(1, a)) is NotImplemented
    assert ModusPonens(1, 2) != ModusPonens(2, 1) and Hypothesis(0, "h1") != Hypothesis(0, "h2")
    # a record equals no value of another class, fieldless or not
    assert Tautology() != Falsum() and VerifyResult(True) != Verdict(True)
    assert ModusPonens(1, 2) != (1, 2) and Line(p, Tautology()) != (p, Tautology())


def test_proof_records_hash_as_the_tuple_of_their_fields():
    for record in _proof_records():
        fields = tuple(getattr(record, name) for name in type(record).__slots__)
        assert hash(record) == hash(fields), record
    assert hash(Tautology()) == hash(()) and hash(ModusPonens(1, 2)) == hash((1, 2))
    assert len(set(_proof_records() + _proof_records())) == len(_proof_records())


def test_the_repr_of_proof_records_names_every_field():
    # the strings the frozen dataclasses printed
    assert list(map(repr, _proof_records())) == [
        "Tautology()",
        "AxiomInstance(name=<AxiomName.TRUTH: 'Truth'>)",
        "ModusPonens(antecedent=1, implication=2)",
        "Necessitation(premise=1, coalition=frozenset({'a'}))",
        "StrategicNecessitation(premise=1, coalition=frozenset({'a'}))",
        "Hypothesis(index=0, label='h1')",
        "Line(formula=Atom('p'), justification=Hypothesis(index=0, label='h1'))",
        "Derivation(hypotheses=(('h1', Atom('p')),), lines=(Line(formula=Atom('p'), "
        "justification=Hypothesis(index=0, label='h1')),), goal=Atom('p'))",
        "VerifyResult(ok=True, line=None, reason=None)",
        "VerifyResult(ok=False, line=3, reason='mode violation')",
    ]


def test_proof_records_take_their_fields_by_keyword_and_default():
    cited = Hypothesis(index=0, label="h1")
    assert [Tautology(), AxiomInstance(name=AxiomName.TRUTH),
            ModusPonens(antecedent=1, implication=2),
            Necessitation(premise=1, coalition=a),
            StrategicNecessitation(premise=1, coalition=a), cited,
            Line(formula=p, justification=cited),
            Derivation(hypotheses=(("h1", p),), lines=(Line(p, cited),), goal=p),
            VerifyResult(ok=True),
            VerifyResult(ok=False, line=3, reason="mode violation"),
            ] == _proof_records()
    ok = VerifyResult(True)
    assert (ok.ok, ok.line, ok.reason, str(ok)) == (True, None, None, "ok")
    assert VerifyResult(False, reason="derivation has no lines") == VerifyResult(
        False, None, "derivation has no lines")
    with pytest.raises(TypeError):
        Line(p)
    with pytest.raises(TypeError):
        ModusPonens(1, 2, 3)


class _Cited(Justification):
    """A justification defined outside proofkit, with a field of its own."""

    __slots__ = ("source",)

    def __init__(self, source: str):
        object.__setattr__(self, "source", source)


def test_a_justification_subclass_is_a_record_too():
    cited = _Cited("paper")
    assert cited == _Cited("paper") != _Cited("book") and hash(cited) == hash(("paper",))
    assert repr(cited) == "_Cited(source='paper')" and copy.copy(cited) == cited
    with pytest.raises(AttributeError, match="cannot assign to field 'source'"):
        cited.source = "book"
    result = verify(Derivation((), (Line(p, cited),), p))
    assert str(result) == "line 1: unknown justification _Cited(source='paper')"


@pytest.mark.parametrize("value", _values(), ids=lambda v: type(v).__name__)
def test_assignment_and_deletion_raise_attribute_error(value):
    assert not hasattr(value, "__dict__")
    before = repr(value)
    for name in (*type(value).__slots__, "_h", "other"):
        with pytest.raises(AttributeError):
            setattr(value, name, 1)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == before


@pytest.mark.parametrize("value", _values(), ids=lambda v: type(v).__name__)
def test_copies_are_rebuilt_equal(value):
    for twin in (copy.copy(value), copy.deepcopy(value),
                 pickle.loads(pickle.dumps(value))):
        assert twin == value and hash(twin) == hash(value)
        assert type(twin) is type(value)


# one interpreter pickles under one str hash salt, another loads under a
# different one: a history must equal, and hash as, the one built there
ACROSS_SALTS = """
import pickle, sys
from knowhow.checker import Verdict
from knowhow.fixtures import load_fixture
from knowhow.system import parse_history

h = parse_history(load_fixture("t1"), "w0 ; a=1 ; w1 ; a=0 ; w2")
values = (h, Verdict(False, True, 2, h))
if sys.argv[1] == "dump":
    sys.stdout.buffer.write(pickle.dumps(values))
else:
    loaded = pickle.loads(sys.stdin.buffer.read())
    assert len(loaded) == len(values)
    for old, new in zip(loaded, values):
        assert old == new and hash(old) == hash(new) and old in {new}, old
    print("equal")
"""


def test_pickles_load_equal_under_another_string_hash_salt():
    env = {**os.environ, "PYTHONPATH": str(Path(knowhow.__file__).resolve().parents[1])}
    dumped = subprocess.run([sys.executable, "-c", ACROSS_SALTS, "dump"],
                            capture_output=True, check=True, timeout=60,
                            env={**env, "PYTHONHASHSEED": "1"}).stdout
    loaded = subprocess.run([sys.executable, "-c", ACROSS_SALTS, "load"],
                            input=dumped, capture_output=True, timeout=60,
                            env={**env, "PYTHONHASHSEED": "2"})
    assert loaded.returncode == 0, loaded.stderr.decode()
    assert loaded.stdout == b"equal\n"


def test_measures_is_a_named_tuple_with_replace():
    m = measures(parse("!K{a} H{} p"))
    assert m == Measures(nesting=3, h_depth=1, uses_empty_coalition=True,
                         agents=a)
    assert Measures._fields == ("nesting", "h_depth", "uses_empty_coalition",
                                "agents")
    wider = m._replace(nesting=7)
    assert type(wider) is Measures and wider == (7, 1, True, a)
    assert repr(wider) == ("Measures(nesting=7, h_depth=1, "
                           "uses_empty_coalition=True, agents=frozenset({'a'}))")
