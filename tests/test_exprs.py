"""Expression evaluation and printing."""
import pytest
from hypothesis import given, strategies as st

from fixleads.exprs import (
    And,
    Arith,
    BoolLit,
    Cmp,
    EvalError,
    IntLit,
    Name,
    Not,
    Or,
    eval_bool,
    eval_expr,
    to_text,
)


def test_literals_and_names():
    env = {"x": 3, "b": True}
    assert eval_expr(IntLit(7), env) == 7
    assert eval_expr(BoolLit(False), env) is False
    assert eval_expr(Name("x"), env) == 3
    assert eval_expr(Name("red"), env, frozenset({"red"})) == "red"


def test_arithmetic_and_comparison():
    env = {"x": 3}
    assert eval_expr(Arith(("+",), (Name("x"), IntLit(1))), env) == 4
    assert eval_expr(Arith(("*",), (Name("x"), Name("x"))), env) == 9
    assert eval_bool(Cmp("<", Name("x"), IntLit(5)), env)
    assert not eval_bool(Cmp("=", Name("x"), IntLit(5)), env)
    assert eval_bool(Cmp("!=", Name("x"), IntLit(5)), env)


def test_boolean_connectives():
    env = {"p": True, "q": False}
    assert eval_bool(And((Name("p"), Not(Name("q")))), env)
    assert eval_bool(Or((Name("q"), Name("p"))), env)
    assert not eval_bool(And((Name("p"), Name("q"))), env)


def test_type_errors():
    with pytest.raises(EvalError):
        eval_expr(Arith(("+",), (BoolLit(True), IntLit(1))), {})
    with pytest.raises(EvalError):
        eval_expr(Name("missing"), {})
    with pytest.raises(EvalError):
        eval_bool(IntLit(3), {})
    with pytest.raises(EvalError):
        eval_expr(Cmp("<", BoolLit(True), IntLit(0)), {})
    with pytest.raises(EvalError):
        # equality across types is rejected, not coerced
        eval_expr(Cmp("=", IntLit(1), BoolLit(True)), {})


def test_bool_is_not_an_int():
    with pytest.raises(EvalError):
        eval_expr(Arith(("+",), (Name("b"), IntLit(1))), {"b": True})


def _chains(kids):
    """Arithmetic chains of 2-4 operands: all ``*``, or each of ``+``/``-``."""
    return st.lists(kids, min_size=2, max_size=4).flatmap(lambda xs: st.builds(
        Arith,
        st.one_of(st.just(("*",) * (len(xs) - 1)),
                  st.tuples(*[st.sampled_from(["+", "-"])] * (len(xs) - 1))),
        st.just(tuple(xs)),
    ))


_int_exprs = st.recursive(
    st.one_of(
        st.integers(min_value=0, max_value=9).map(IntLit),
        st.sampled_from([Name("x"), Name("y")]),
    ),
    _chains,
    max_leaves=8,
)

_bool_exprs = st.recursive(
    st.one_of(
        st.booleans().map(BoolLit),
        st.builds(Cmp, st.sampled_from(["=", "!=", "<", "<=", ">", ">="]), _int_exprs, _int_exprs),
    ),
    lambda kids: st.one_of(
        st.builds(Not, kids),
        st.builds(And, st.lists(kids, min_size=2, max_size=4).map(tuple)),
        st.builds(Or, st.lists(kids, min_size=2, max_size=4).map(tuple)),
    ),
    max_leaves=8,
)


@given(_bool_exprs, st.integers(-3, 3), st.integers(-3, 3))
def test_print_parse_eval_agree(expr, x, y):
    """Printed syntax reparses to the same expression, even where an
    operand is a chain of its parent's level, as in ``(x + y) + 1``."""
    from fixleads.dsl import _Parser

    text = to_text(expr)
    parser = _Parser(text)
    reparsed = parser.expr()
    assert parser.peek() == "eof"
    assert reparsed == expr
    env = {"x": x, "y": y}
    assert eval_expr(reparsed, env) == eval_expr(expr, env)


def test_a_chain_prints_its_nesting():
    x, y, z = Name("x"), Name("y"), Name("z")
    assert to_text(Arith(("-", "+"), (x, Arith(("-",), (y, z)), z))) == "x - (y - z) + z"
    assert to_text(Arith(("+",), (Arith(("-",), (IntLit(0), x)), y))) == "(0 - x) + y"
    assert to_text(Arith(("*",), (Arith(("+",), (x, y)), z))) == "(x + y) * z"
    assert to_text(Arith(("+",), (Arith(("*",), (x, y)), z))) == "x * y + z"
    p, q = Name("p"), Name("q")
    assert to_text(Or((And((p, q)), Not(p), q))) == "p and q or not p or q"
    assert to_text(And((Or((p, q)), And((p, q))))) == "(p or q) and (p and q)"
