"""Integer/boolean expression AST shared by predicates, actions and variants.

Values are plain ints, bools, or enumeration literals (strings).  Evaluation
is always against a full assignment of the declared variables, so every
operation is total or raises :class:`EvalError`.
"""
from __future__ import annotations

import operator

from .records import Frozen, setfield

Value = int | bool | str


class EvalError(Exception):
    """Unknown identifier or type mismatch during expression evaluation."""


class IntLit(Frozen):
    __slots__ = ("value",)

    def __init__(self, value: int):
        setfield(self, "value", value)


class BoolLit(Frozen):
    __slots__ = ("value",)

    def __init__(self, value: bool):
        setfield(self, "value", value)


class Name(Frozen):
    __slots__ = ("ident",)

    def __init__(self, ident: str):
        setfield(self, "ident", ident)


class Arith(Frozen):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: "Expr", right: "Expr"):
        setfield(self, "op", op)  # '+', '-', '*'
        setfield(self, "left", left)
        setfield(self, "right", right)


class Cmp(Frozen):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: "Expr", right: "Expr"):
        setfield(self, "op", op)  # '=', '!=', '<', '<=', '>', '>='
        setfield(self, "left", left)
        setfield(self, "right", right)


class Not(Frozen):
    __slots__ = ("operand",)

    def __init__(self, operand: "Expr"):
        setfield(self, "operand", operand)


class And(Frozen):
    __slots__ = ("left", "right")

    def __init__(self, left: "Expr", right: "Expr"):
        setfield(self, "left", left)
        setfield(self, "right", right)


class Or(Frozen):
    __slots__ = ("left", "right")

    def __init__(self, left: "Expr", right: "Expr"):
        setfield(self, "left", left)
        setfield(self, "right", right)


Expr = IntLit | BoolLit | Name | Arith | Cmp | Not | And | Or


def _is_int(v: Value) -> bool:
    return type(v) is int


def eval_expr(node: Expr, env: dict, constants: frozenset = frozenset()) -> Value:
    """Evaluate ``node`` under ``env``; ``constants`` are enum literals."""
    if isinstance(node, IntLit):
        return node.value
    if isinstance(node, BoolLit):
        return node.value
    if isinstance(node, Name):
        if node.ident in env:
            return env[node.ident]
        if node.ident in constants:
            return node.ident
        raise EvalError(f"unknown identifier {node.ident!r}")
    if isinstance(node, Arith):
        spine = _left_spine(node, Arith)
        lv = eval_expr(spine[-1].left, env, constants)
        for link in reversed(spine):
            rv = eval_expr(link.right, env, constants)
            if not (_is_int(lv) and _is_int(rv)):
                raise EvalError(f"arithmetic {link.op!r} needs integers, got {lv!r}, {rv!r}")
            if link.op not in _ARITH:
                raise EvalError(f"bad arithmetic operator {link.op!r}")
            lv = _ARITH[link.op](lv, rv)
        return lv
    if isinstance(node, Cmp):
        lv = eval_expr(node.left, env, constants)
        rv = eval_expr(node.right, env, constants)
        if node.op in ("=", "!="):
            if type(lv) is not type(rv):
                raise EvalError(f"cannot compare {lv!r} with {rv!r}")
            return (lv == rv) if node.op == "=" else (lv != rv)
        if not (_is_int(lv) and _is_int(rv)):
            raise EvalError(f"ordering {node.op!r} needs integers, got {lv!r}, {rv!r}")
        if node.op == "<":
            return lv < rv
        if node.op == "<=":
            return lv <= rv
        if node.op == ">":
            return lv > rv
        if node.op == ">=":
            return lv >= rv
        raise EvalError(f"bad comparison operator {node.op!r}")
    if isinstance(node, Not):
        v = eval_expr(node.operand, env, constants)
        if not isinstance(v, bool):
            raise EvalError(f"'not' needs a boolean, got {v!r}")
        return not v
    if isinstance(node, (And, Or)):
        spine = _left_spine(node, (And, Or))
        lv = eval_expr(spine[-1].left, env, constants)
        for link in reversed(spine):
            is_or = isinstance(link, Or)
            if not isinstance(lv, bool):
                raise EvalError(f"'{'or' if is_or else 'and'}' needs booleans, got {lv!r}")
            if lv is not is_or:  # the left value decides nothing: ``and`` on true, ``or`` on false
                lv = eval_bool(link.right, env, constants)
        return lv
    raise EvalError(f"bad expression node {node!r}")


def _left_spine(node: Expr, kinds) -> list:
    """``node`` and its chain of left operands of the types ``kinds``, top
    first: a chain such as ``a + b - c`` parses left-deep, so the evaluators
    walk its links in a loop, and only real nesting recurses."""
    spine = [node]
    while isinstance(spine[-1].left, kinds):
        spine.append(spine[-1].left)
    return spine


def eval_bool(node: Expr, env: dict, constants: frozenset = frozenset()) -> bool:
    v = eval_expr(node, env, constants)
    if not isinstance(v, bool):
        raise EvalError(f"expected a boolean expression, got {v!r}")
    return v


# --- Set-valued evaluation ---------------------------------------------------

Key = tuple[type, Value]  # the type keeps True and 1 apart as dict keys
Partition = dict[Key, int]


class Undecided(Exception):
    """The partition evaluator cannot decide an expression: ``eval_expr`` on
    some state would raise, or the partition grows past its bound."""


_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul}
_ORDER = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def eval_partition(
    node: Expr, leaves: dict[str, Partition | None], constants: frozenset, care: int, limit: int
) -> Partition:
    """The states of the mask ``care`` grouped by the value of ``node``:
    ``{(type, value): mask}``, every mask non-empty, disjoint and inside
    ``care``, with ``eval_expr`` on each state of ``mask`` giving ``value``.

    ``leaves`` maps each variable to the partition of the whole space by its
    value (``None`` when it has none).  Operands are combined pairwise, and
    the right operand of ``and``/``or`` is evaluated only on the states the
    left one does not decide, as ``eval_expr`` short-circuits per state.
    Raises :class:`Undecided` where ``eval_expr`` would raise on some state
    of ``care``, and when one operator pairs more than ``limit`` blocks."""
    try:
        return _partition(node, leaves, constants, care, limit)
    except RecursionError:
        raise Undecided("expression nested too deeply") from None


def true_mask(partition: Partition) -> int:
    """The mask on which a predicate's partition is true; :class:`Undecided`
    when some block is not a boolean, where ``eval_bool`` would raise."""
    if any(t is not bool for t, _ in partition):
        raise Undecided("expected a boolean expression")
    return partition.get((bool, True), 0)


def _partition(node: Expr, leaves, constants, care: int, limit: int) -> Partition:
    if not care:
        return {}
    if isinstance(node, (IntLit, BoolLit)):
        return {(type(node.value), node.value): care}
    if isinstance(node, Name):
        if node.ident in leaves:  # a variable shadows a constant of that name
            blocks = leaves[node.ident]
            if blocks is None:
                raise Undecided(f"no value masks for {node.ident!r}")
            return {key: m & care for key, m in blocks.items() if m & care}
        if node.ident in constants:
            return {(str, node.ident): care}
        raise Undecided(f"unknown identifier {node.ident!r}")
    if isinstance(node, Cmp):
        left = _partition(node.left, leaves, constants, care, limit)
        return _pairwise(node, left, _partition(node.right, leaves, constants, care, limit), limit)
    if isinstance(node, Arith):
        spine = _left_spine(node, Arith)
        left = _partition(spine[-1].left, leaves, constants, care, limit)
        for link in reversed(spine):
            right = _partition(link.right, leaves, constants, care, limit)
            left = _pairwise(link, left, right, limit)
        return left
    if isinstance(node, Not):
        inner = _partition(node.operand, leaves, constants, care, limit)
        if any(t is not bool for t, _ in inner):
            raise Undecided("'not' needs a boolean")
        return {(bool, not v): m for (_, v), m in inner.items()}
    if isinstance(node, (And, Or)):
        spine = _left_spine(node, (And, Or))
        left = _partition(spine[-1].left, leaves, constants, care, limit)
        for link in reversed(spine):
            if any(t is not bool for t, _ in left):
                raise Undecided("'and'/'or' needs booleans")
            # the left value that decides the result without the right operand
            decides = isinstance(link, Or)
            right = _partition(
                link.right, leaves, constants, left.get((bool, not decides), 0), limit
            )
            if any(t is not bool for t, _ in right):
                raise Undecided("'and'/'or' needs booleans")
            out = dict(right)
            decided = left.get((bool, decides), 0)
            if decided:
                out[(bool, decides)] = out.get((bool, decides), 0) | decided
            left = out
        return left
    raise Undecided(f"bad expression node {node!r}")


def _pairwise(node: Arith | Cmp, left: Partition, right: Partition, limit: int) -> Partition:
    """The partition of ``node`` from the partitions of its operands."""
    if len(left) * len(right) > limit:
        raise Undecided("partition larger than the state count")
    equality = isinstance(node, Cmp) and node.op in ("=", "!=")
    fn = (_ARITH if isinstance(node, Arith) else _ORDER).get(node.op)
    if fn is None and not equality:
        raise Undecided(f"bad operator {node.op!r}")
    out: Partition = {}
    for (lt, lv), lm in left.items():
        for (rt, rv), rm in right.items():
            m = lm & rm
            if not m:
                continue
            if equality:
                if lt is not rt:
                    raise Undecided("comparison of different types")
                key = (bool, (lv == rv) == (node.op == "="))
            elif lt is not int or rt is not int:
                raise Undecided(f"{node.op!r} needs integers")
            else:
                value = fn(lv, rv)
                key = (type(value), value)
            out[key] = out.get(key, 0) | m
    return out


_PREC = {Or: 1, And: 2, Not: 3, Cmp: 4, Arith: 5}


def to_text(node: Expr) -> str:
    """Render an expression back to concrete syntax (parse/print round-trips)."""

    def render(n: Expr, parent_prec: int) -> str:
        if isinstance(n, IntLit):
            return str(n.value)
        if isinstance(n, BoolLit):
            return "true" if n.value else "false"
        if isinstance(n, Name):
            return n.ident
        if isinstance(n, Not):
            s = "not " + render(n.operand, _PREC[Not])
            prec = _PREC[Not]
        elif isinstance(n, And):
            s = render(n.left, _PREC[And]) + " and " + render(n.right, _PREC[And] + 1)
            prec = _PREC[And]
        elif isinstance(n, Or):
            s = render(n.left, _PREC[Or]) + " or " + render(n.right, _PREC[Or] + 1)
            prec = _PREC[Or]
        elif isinstance(n, Cmp):
            s = render(n.left, _PREC[Cmp] + 1) + f" {n.op} " + render(n.right, _PREC[Cmp] + 1)
            prec = _PREC[Cmp]
        elif isinstance(n, Arith):
            # '+'/'-' associate left; '*' binds tighter
            lp = 5 if n.op in "+-" else 6
            s = render(n.left, lp) + f" {n.op} " + render(n.right, lp + 1)
            prec = lp
        else:
            raise EvalError(f"bad expression node {n!r}")
        return f"({s})" if prec < parent_prec else s

    return render(node, 0)
