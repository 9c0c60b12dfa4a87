"""The value semantics of fixleads' records: exact-type equality, hashing of
the read-only ones, constructor defaults and a readable repr."""
import copy
import pickle

import pytest

from fixleads.certificates import Basic, Disj, Trans
from fixleads.cli import Claim
from fixleads.dsl import (
    Assign,
    Elaborated,
    EventAst,
    Property,
    PropertyAst,
    SpecAst,
    VarDeclAst,
    VariantAst,
)
from fixleads.exprs import And, Arith, BoolLit, Cmp, IntLit, Name, Not, Or
from fixleads.oracle import Counterexample
from fixleads.states import StateSet, VarDecl
from fixleads.transformers import (
    Choice,
    Dovetail,
    Guard,
    IterateTrace,
    Precond,
    Rel,
    Seq,
    Skip,
)
from fixleads.verdicts import Verdict

from conftest import make_space

X, ONE = Name("x"), IntLit(1)


def _frozen_records():
    sp = make_space(3)
    s = sp.from_indices([1])
    return [
        IntLit(1), BoolLit(True), Name("x"), Arith(("+",), (X, ONE)), Cmp("=", X, ONE),
        Not(X), And((X, X)), Or((X, X)),
        VarDecl("x", (0, 1)), s,
        Skip(), Guard(s, Skip()), Precond(s, Skip()), Choice(Skip(), Skip()),
        Seq(Skip(), Skip()), Dovetail(Skip(), Skip()), Rel("e"), IterateTrace((s,), "least"),
        Basic(s, s, "mp"), Trans((Skip(), Skip())), Disj((), s), Claim(s, s, "mp", "mp"),
        VarDeclAst("x", range(0, 3)), Assign("x", (ONE,)),
        EventAst("e", None, ((), (Assign("x", (ONE,)),))),
        VariantAst("v", X), PropertyAst("p", "leadsto", X, X, "mp"),
    ]


def _mutable_records():
    sp = make_space(3)
    return [
        SpecAst("s"), Property("p", "leadsto", sp.empty(), sp.empty(), "mp"),
        Elaborated(None, [], {}, False), Counterexample("lasso", 0), Verdict(True, "T_m"),
    ]


def test_equality_checks_the_exact_type():
    assert And((X, ONE)) == And((Name("x"), IntLit(1)))
    assert And((X, ONE)) != Or((X, ONE))
    assert Choice(Skip(), Skip()) != Dovetail(Skip(), Skip())
    assert IntLit(1) != BoolLit(True)  # 1 == True, but the types differ
    assert Cmp("=", X, ONE) != Cmp("!=", X, ONE)
    assert Verdict(True, "T_m") == Verdict(True, "T_m")
    assert Verdict(True, "T_m") != Verdict(False, "T_m")


def test_state_set_equality_and_hash_look_at_the_mask_only():
    a, b = make_space(3), make_space(3)
    s, t = StateSet(a, 0b101), StateSet(b, 0b101)
    assert s is not t and s == t and hash(s) == hash(t)
    assert s != StateSet(a, 0b100)
    table = {s: "first"}
    table[a.from_indices([0, 2])] = "second"
    assert table == {t: "second"}


@pytest.mark.parametrize("record", _frozen_records(), ids=lambda r: type(r).__name__)
def test_frozen_records_are_read_only_and_hashable(record):
    field = record.__slots__[0] if record.__slots__ else "anything"
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    rebuilt = type(record)(*[getattr(record, f) for f in record.__slots__])
    assert rebuilt == record and hash(rebuilt) == hash(record)
    assert copy.copy(record) == record and copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


@pytest.mark.parametrize("record", _mutable_records(), ids=lambda r: type(r).__name__)
def test_mutable_records_are_unhashable(record):
    with pytest.raises(TypeError):
        hash(record)
    field = record.__slots__[0]
    setattr(record, field, "changed")
    assert getattr(record, field) == "changed"


def test_keyword_construction_with_defaults():
    cx = Counterexample(kind="deadlock-path", start=3)
    assert (cx.prefix, cx.cycle, cx.fairness_witness, cx.assumption) == ([], [], {}, "mp")
    assert Counterexample("lasso", 0).prefix is not cx.prefix  # a fresh list each
    v = Verdict(holds=True, relation="E_m")
    assert (v.fixpoint, v.trace, v.details) == (None, None, {})
    assert Verdict(True, "E_m").details is not v.details
    p = PropertyAst(name="p", kind="leadsto", p=X, q=ONE, assumption="wf", using="v")
    assert (p.via, p.using, p.with_si, p.line) == (None, "v", False, 0)
    assert p == PropertyAst("p", "leadsto", X, ONE, "wf", None, "v", False, 0)
    assert SpecAst("s").vars == [] and SpecAst("s").vars is not SpecAst("s").vars


def test_repr_names_every_field():
    assert repr(Cmp("=", X, ONE)) == "Cmp(op='=', left=Name(ident='x'), right=IntLit(value=1))"
    assert repr(Skip()) == "Skip()"
    assert repr(Counterexample("lasso", 2)) == (
        "Counterexample(kind='lasso', start=2, prefix=[], cycle=[], "
        "fairness_witness={}, assumption='mp')"
    )
    assert repr(make_space(3).from_indices([2, 0])) == "StateSet([0, 2])"
