"""The precedence climber of ``dsl._Parser.expr`` and its one property rule
against the recursive-descent methods they replaced: the same AST (``==``
and ``repr``), or the same ``DslError`` text, line and column, on every
model in ``tests/data``, on the benchmark families, on seeded random token
edits of them and on the generated expressions of ``test_elaborate``.  The
one intended difference is depth: a parenthesis level costs two stack
frames instead of eight."""
import contextlib
import gc
import io
import itertools
import os
import random
import re
import sys
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fixleads.cli import main
from fixleads.dsl import DslError, PropertyAst, _Parser, parse, tokenize
from fixleads.printer import print_spec
from fixleads.exprs import BINDING, And, Arith, BoolLit, Cmp, IntLit, Name, Not, Or

import test_bench_models  # loads perfbench/models.py as perfbench_models
from test_elaborate import _domains, _expr, models

DATA = os.path.join(os.path.dirname(__file__), "data")
README = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")

# --- the former expression and property rules, as the reference ---------------


class _Reference(_Parser):
    """``_Parser`` with the recursive descent it had before the climber: one
    method per precedence level, lowest first, and one ``prop`` branch per
    property kind."""

    def prop(self, name, line):
        if self.at_keyword("ensures"):
            self.next()
            p = self.braced_pred()
            q = self.braced_pred()
            via = None
            if self.at_keyword("via"):
                self.next()
                via = self.ident()
            self.expect_keyword("under")
            assumption = self.assumption()
            return PropertyAst(name, "ensures", p, q, assumption, via=via, line=line)
        if self.at_keyword("leadsto"):
            self.next()
            p = self.braced_pred()
            q = self.braced_pred()
            self.expect_keyword("under")
            assumption = self.assumption()
            using = None
            with_si = False
            if self.at_keyword("using"):
                self.next()
                using = self.ident()
            if self.at_keyword("with"):
                self.next()
                self.expect_keyword("si")
                with_si = True
            return PropertyAst(
                name, "leadsto", p, q, assumption, using=using, with_si=with_si, line=line,
            )
        raise self.fail("'ensures' or 'leadsto'")

    def assumption(self):
        if self.at_keyword("mp", "wf"):
            return self.next()
        raise self.fail("'mp' or 'wf'")

    def expr(self):
        e = self.and_expr()
        if self.texts[self.pos] == "or":
            return self._chain(e, self.and_expr, ("or",), Or)
        return e

    def and_expr(self):
        e = self.not_expr()
        if self.texts[self.pos] == "and":
            return self._chain(e, self.not_expr, ("and",), And)
        return e

    def _chain(self, first, operand, ops, node):
        links, operands = [], [first]
        while self.texts[self.pos] in ops:
            links.append(self.next())
            operands.append(operand())
        return Arith(tuple(links), tuple(operands)) if node is Arith else node(tuple(operands))

    def not_expr(self):
        if self.at_keyword("not"):
            self.next()
            return Not(self.not_expr())
        return self.cmp_expr()

    def cmp_expr(self):
        e = self.sum_expr()
        op = self.peek()
        if op in ("=", "!=", "<", "<=", ">", ">="):
            self.next()
            return Cmp(op, e, self.sum_expr())
        return e

    def sum_expr(self):
        e = self.term_expr()
        if self.texts[self.pos] in ("+", "-"):
            return self._chain(e, self.term_expr, ("+", "-"), Arith)
        return e

    def term_expr(self):
        e = self.unary_expr()
        if self.texts[self.pos] == "*":
            return self._chain(e, self.unary_expr, ("*",), Arith)
        return e

    def unary_expr(self):
        if self.peek() == "-":
            self.next()
            return Arith(("-",), (IntLit(0), self.unary_expr()))
        return self.atom()

    def atom(self):
        kind = self.peek()
        if kind == "int":
            return IntLit(int(self.next()))
        if kind == "ident":
            return Name(self.next())
        if self.at_keyword("true", "false"):
            return BoolLit(self.next() == "true")
        if kind == "(":
            self.next()
            e = self.expr()
            self.expect(")")
            return e
        raise self.fail("an expression")


# --- the differential ------------------------------------------------------


def _outcome(parser, text):
    """``('ast', ast, repr)`` or ``('error', text, line, col)``."""
    try:
        ast = parser(text).spec()
    except DslError as exc:
        return "error", str(exc), exc.line, exc.col
    return "ast", ast, repr(ast)


def _assert_same(text):
    """The climber's outcome on ``text``, asserted equal to the reference's;
    a model that parses also prints back to itself."""
    got = _outcome(_Parser, text)
    assert got == _outcome(_Reference, text), text
    if got[0] == "ast":
        assert parse(print_spec(got[1])) == got[1], text
    return got[0]


def _expr_outcome(parser, text):
    """A lone expression's node, the token where it stops, or the error."""
    p = parser(text)
    try:
        node = p.expr()
    except DslError as exc:
        return "error", str(exc), exc.line, exc.col
    return "expr", node, repr(node), p.pos


def _corpus():
    texts = {}
    for name in sorted(os.listdir(DATA)):
        if name.endswith(".evt"):
            with open(os.path.join(DATA, name), encoding="utf-8") as fh:
                texts[name] = fh.read()
    models = sys.modules["perfbench_models"]
    for n in (3, 4, 5):
        texts[f"ring{n}"] = models.ring(n, 1, assume=("wf", "mp", "wf-si")).text
        texts[f"starve{n}"] = models.ring(n, 1, starve=True, assume=("wf", "mp")).text
    for k, m in ((3, 9), (2, 4)):
        texts[f"lattice{k}x{m}"] = models.lattice(k, m, 1).text
    return texts


CORPUS = _corpus()

# what the edits insert: every operator, the prefix ones among them,
# parentheses, the property keywords and a few atoms, alone and in pieces
# that often keep an expression whole
_PIECES = ["or", "and", "not", "=", "!=", "<", "<=", ">", ">=", "+", "-", "*", "-", "not",
           "(", ")", "(", ")", "ensures", "leadsto", "via", "under", "using", "with", "si",
           "mp", "wf", "x", "t", "1", "true", "{", "}",
           "not not", "- -", "or true", "and false", "+ 1", "- 2", "* 3", "= 1", "< 1 and",
           "- (1)", "(1) *", "1 + (2 -", ") )", "with si", "via e", "using v"]


class _Spans(_Parser):
    """Records the tokens of every expression it parses."""

    def __init__(self, text):
        super().__init__(text)
        self.inside = set()

    def expr(self, *level):
        start = self.pos
        node = super().expr(*level)
        self.inside.update(range(start, self.pos))
        return node


def _expression_tokens(text):
    """The indices of the tokens of ``text`` that lie in an expression, all
    of them when ``text`` does not parse."""
    parser = _Spans(text)
    try:
        parser.spec()
    except DslError:
        return range(len(parser.kinds))
    return sorted(parser.inside)


def _edit(text, rng):
    """``text`` after one to three token insertions, deletions or
    replacements at token boundaries, mostly inside expressions; a
    replacement may wrap the token."""
    for _ in range(rng.choice((1, 1, 2, 3))):
        _, texts, offsets = tokenize(text)
        i = rng.choice(_expression_tokens(text) if rng.random() < 0.8 else range(len(offsets)))
        at, end = offsets[i], offsets[i] + len(texts[i])
        roll = rng.random()
        if roll < 0.4:
            text = f"{text[:at]}{rng.choice(_PIECES)} {text[at:]}"
        elif roll < 0.6:
            text = text[:at] + text[end:]
        elif roll < 0.8:
            text = f"{text[:at]}{rng.choice(_PIECES)}{text[end:]}"
        else:
            wrap = rng.choice(("({})", "- {}", "not {}", "({} + 1)", "{0} or {0}", "(({}))"))
            text = text[:at] + wrap.format(texts[i]) + text[end:]
    return text


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_models_parse_as_the_reference_parses_them(name):
    assert _assert_same(CORPUS[name]) == "ast"


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_random_token_edits_parse_as_the_reference_parses_them(name):
    rng = random.Random(name)
    outcomes = {"ast": 0, "error": 0}
    for _ in range(80):
        outcomes[_assert_same(_edit(CORPUS[name], rng))] += 1
    assert min(outcomes.values()) >= 3, outcomes


# the tokens of an expression, the prefix ones twice
_EXPR_TOKENS = ["or", "and", "not", "not", "=", "!=", "<", "<=", ">", ">=", "+", "-", "-", "*",
                "(", ")", "(", ")", "x", "y", "0", "2", "false"]


def test_random_token_strings_parse_as_the_reference_parses_them():
    rng = random.Random(2005)
    outcomes = {"expr": 0, "error": 0}
    for _ in range(3000):
        text = " ".join(rng.choice(_EXPR_TOKENS) for _ in range(rng.randint(1, 12)))
        got = _expr_outcome(_Parser, text)
        assert got == _expr_outcome(_Reference, text), text
        outcomes[got[0]] += 1
    assert min(outcomes.values()) >= 300, outcomes


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_generated_expressions_parse_as_the_reference_parses_them(data):
    decls = data.draw(_domains())
    text = _expr(data.draw, decls, data.draw(st.sampled_from(["int", "bool", "enum"])), 3)[0]
    got = _expr_outcome(_Parser, text)
    assert got == _expr_outcome(_Reference, text)
    assert got[0] == "expr" and got[3] == len(tokenize(text)[0]) - 1


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(models())
def test_generated_models_parse_as_the_reference_parses_them(text):
    assert _assert_same(text) == "ast"


_HEAD = "system s\nvar x : 0 .. 2\nevent e then skip\nvariant v := x\n"


@pytest.mark.parametrize("prop, want", [
    ("ensures {x = 0} {x = 1} via e under wf", None),
    ("ensures {x = 0} {x = 1} under mp", None),
    ("leadsto {x = 0} {x = 1} under mp using v with si", None),
    ("leadsto {x = 0} {x = 1} under wf with si", None),
    ("leadsto {x = 0} {x = 1} via e under mp", "5:38: expected 'under', got 'via'"),
    ("leadsto {x = 0} {x = 1} using v under mp", "5:38: expected 'under', got 'using'"),
    ("ensures {x = 0} {x = 1} under mp using v",
     "5:47: expected 'var', 'invariant', 'init', 'event', 'variant' or 'property', got 'using'"),
    ("ensures {x = 0} {x = 1} under mp with si",
     "5:47: expected 'var', 'invariant', 'init', 'event', 'variant' or 'property', got 'with'"),
    ("leadsto {x = 0} {x = 1} under mp with si using v",
     "5:55: expected 'var', 'invariant', 'init', 'event', 'variant' or 'property', got 'using'"),
    ("ensures {x = 0} {x = 1} via under mp", "5:42: expected an identifier, got 'under'"),
    ("leadsto {x = 0} {x = 1} under mp with", "6:1: expected 'si', got 'end of input'"),
    ("leadsto {x = 0} {x = 1} under", "6:1: expected 'mp' or 'wf', got 'end of input'"),
    ("under {x = 0} {x = 1} under mp", "5:14: expected 'ensures' or 'leadsto', got 'under'"),
])
def test_property_clauses(prop, want):
    text = f"{_HEAD}property p : {prop}\n"
    assert _assert_same(text) == ("ast" if want is None else "error")
    if want is not None:
        with pytest.raises(DslError) as exc:
            parse(text)
        assert str(exc.value) == want


_CLAUSES = ["via e", "under mp", "under wf", "using v", "with si", "with", "via", "using", "si"]


@pytest.mark.parametrize("kind", ["ensures", "leadsto"])
def test_every_clause_sequence_parses_as_the_reference_parses_it(kind):
    """Each sequence of up to three clauses after ``{P} {Q}``, in any order."""
    outcomes = {"ast": 0, "error": 0}
    for n in range(4):
        for clauses in itertools.product(_CLAUSES, repeat=n):
            text = f"{_HEAD}property p : {kind} {{x = 0}} {{x = 1}} {' '.join(clauses)}\n"
            outcomes[_assert_same(text)] += 1
    assert outcomes["ast"] >= 2, outcomes


def test_the_clauses_land_in_their_fields():
    props = parse(f"{_HEAD}property a : ensures {{x = 0}} {{x = 1}} via e under wf\n"
                  "property b : leadsto {x = 0} {x = 1} under mp using v with si\n").properties
    assert [(p.kind, p.via, p.using, p.with_si, p.assumption) for p in props] == [
        ("ensures", "e", None, False, "wf"), ("leadsto", None, "v", True, "mp")]


X, Y, Z = Name("x"), Name("y"), Name("z")


@pytest.mark.parametrize("text, want", [
    ("x + y * z - 1", Arith(("+", "-"), (X, Arith(("*",), (Y, Z)), IntLit(1)))),
    ("x * y + z", Arith(("+",), (Arith(("*",), (X, Y)), Z))),
    ("- x * y", Arith(("*",), (Arith(("-",), (IntLit(0), X)), Y))),
    ("- - x", Arith(("-",), (IntLit(0), Arith(("-",), (IntLit(0), X))))),
    ("not x = 1 and y", And((Not(Cmp("=", X, IntLit(1))), Y))),
    ("not not x or y and z", Or((Not(Not(X)), And((Y, Z))))),
    ("x < y + 1", Cmp("<", X, Arith(("+",), (Y, IntLit(1))))),
    ("((x + y)) + z", Arith(("+",), (Arith(("+",), (X, Y)), Z))),
    ("(x)", X),
])
def test_expression_shapes(text, want):
    assert _expr_outcome(_Parser, text) == _expr_outcome(_Reference, text)
    assert _Parser(text).expr() == want


@pytest.mark.parametrize("text, want", [
    ("x < y < z", "4:12: expected 'var', 'invariant', 'init', 'event', 'variant' "
                  "or 'property', got '<'"),
    ("not x = 1 < 2", "4:16: expected 'var', 'invariant', 'init', 'event', 'variant' "
                      "or 'property', got '<'"),
    ("x = not y", "4:10: expected an expression, got 'not'"),
    ("x + not y", "4:10: expected an expression, got 'not'"),
    ("- not x", "4:8: expected an expression, got 'not'"),
    ("x * )", "4:10: expected an expression, got ')'"),
])
def test_expression_errors(text, want):
    model = f"system s\nvar x : 0 .. 2\nevent e then skip\ninit {text}\n"
    assert _assert_same(model) == "error"
    with pytest.raises(DslError) as exc:
        parse(model)
    assert str(exc.value) == want


def test_the_readme_states_the_binding_table():
    """The README's binding table, loosest first, is ``exprs.BINDING``."""
    with open(README, encoding="utf-8") as fh:
        rows = re.findall(r"^\| (\d) \| ((?:`[^`]+` ?)+) \| (prefix|chain|comparison)\b",
                          fh.read(), re.M)
    table = {}
    for level, ops, form in rows:
        for op in re.findall(r"`([^`]+)`", ops):
            prefix, infix = table.get(op, (0, 0))
            table[op] = (int(level), infix) if form == "prefix" else (prefix, int(level))
    assert [int(level) for level, _, _ in rows] == list(range(1, 8))
    assert table == BINDING


# --- nesting depth -----------------------------------------------------------


def _check(tmp_path, depth):
    """``check``'s exit code and stderr on a guard inside ``depth``
    parentheses, which parse to one operand."""
    guard = "(" * depth + "x >= 0" + ")" * depth
    path = tmp_path / "deep.evt"
    path.write_text(f"system s\nvar x : 0 .. 1\ninit x = 0\nevent e when {guard} then skip\n"
                    "property p : leadsto {true} {true} under mp\n")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["check", str(path)])
    return code, err.getvalue()


def test_300_nested_parentheses_load(tmp_path):
    assert _check(tmp_path, 300) == (0, "")


def test_5000_nested_parentheses_exit_2_without_a_traceback(tmp_path):
    code, err = _check(tmp_path, 5000)
    assert code == 2
    assert "model nested too deeply" in err and "Traceback" not in err


@pytest.mark.parametrize("enabled", [True, False])
def test_parse_restores_the_garbage_collector(enabled):
    """The collector is off while parsing, since the AST has no cycles, and
    after a parse or a ``DslError`` it is as it was before."""
    seen = []

    class Spy(_Parser):
        def spec(self):
            seen.append(gc.isenabled())
            return super().spec()

    (gc.enable if enabled else gc.disable)()
    try:
        with mock.patch("fixleads.dsl._Parser", Spy):
            parse("system s\nvar x : 0 .. 1\nevent e then skip\n")
            assert gc.isenabled() is enabled
            with pytest.raises(DslError):
                parse("system s\nvar x : 0 .. \n")
            assert gc.isenabled() is enabled
    finally:
        gc.enable()
    assert seen == [False, False]
