"""Integer/boolean expression AST shared by predicates, actions and variants.

Values are plain ints, bools, or enumeration literals (strings).  Evaluation
is against the values of (at least) the variables an expression reads, its
``names_in``, so every operation is total or raises :class:`EvalError`.

``BINDING`` is the one statement of how tightly each operator binds: the
parser (``dsl._Parser.expr``) climbs its levels and ``to_text`` places its
parentheses by them.  A chain of one level, such as ``a + b - c`` or
``p and q and r``, is one node that holds its operands in order.  So the
evaluators, the printer and the records' equality, hashing and pickling walk
a chain with one loop or none, and only real nesting (parentheses, ``not``,
unary minus, a comparison's operands) recurses.
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
    """A chain of one precedence level, ``operands[0] ops[0] operands[1] ...``,
    evaluated left to right: ``ops`` has one operator fewer than ``operands``,
    and the parser builds it all ``'+'``/``'-'`` or all ``'*'``.  Unary minus
    is ``Arith(("-",), (IntLit(0), x))``."""

    __slots__ = ("ops", "operands")

    def __init__(self, ops: tuple[str, ...], operands: tuple["Expr", ...]):
        setfield(self, "ops", ops)
        setfield(self, "operands", operands)


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
    """``operands[0] and operands[1] and ...``: at least two operands."""

    __slots__ = ("operands",)

    def __init__(self, operands: tuple["Expr", ...]):
        setfield(self, "operands", operands)


class Or(Frozen):
    """``operands[0] or operands[1] or ...``: at least two operands."""

    __slots__ = ("operands",)

    def __init__(self, operands: tuple["Expr", ...]):
        setfield(self, "operands", operands)


Expr = IntLit | BoolLit | Name | Arith | Cmp | Not | And | Or


_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul}
_EQUALITY = {"=": operator.eq, "!=": operator.ne}
_ORDER = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _is_int(v: Value) -> bool:
    return type(v) is int


def shown(val: Value) -> str:
    """``repr(val)``, unless it is an int too long for Python to print."""
    # 14 000 bits is at most 4215 digits, below Python's default bound of 4300
    big = isinstance(val, int) and val.bit_length() > 14000
    return "an integer too long to print" if big else repr(val)


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
        lv = eval_expr(node.operands[0], env, constants)
        for op, right in zip(node.ops, node.operands[1:]):
            rv = eval_expr(right, env, constants)
            if not (_is_int(lv) and _is_int(rv)):
                raise EvalError(f"arithmetic {op!r} needs integers, got {shown(lv)}, {shown(rv)}")
            if op not in _ARITH:
                raise EvalError(f"bad arithmetic operator {op!r}")
            lv = _ARITH[op](lv, rv)
        return lv
    if isinstance(node, Cmp):
        lv = eval_expr(node.left, env, constants)
        rv = eval_expr(node.right, env, constants)
        if node.op in _EQUALITY:
            if type(lv) is not type(rv):
                raise EvalError(f"cannot compare {shown(lv)} with {shown(rv)}")
            return _EQUALITY[node.op](lv, rv)
        if not (_is_int(lv) and _is_int(rv)):
            raise EvalError(f"ordering {node.op!r} needs integers, got {shown(lv)}, {shown(rv)}")
        if node.op not in _ORDER:
            raise EvalError(f"bad comparison operator {node.op!r}")
        return _ORDER[node.op](lv, rv)
    if isinstance(node, Not):
        v = eval_expr(node.operand, env, constants)
        if not isinstance(v, bool):
            raise EvalError(f"'not' needs a boolean, got {shown(v)}")
        return not v
    if isinstance(node, (And, Or)):
        decides = isinstance(node, Or)  # the value that decides the chain: ``or`` on true
        v = eval_expr(node.operands[0], env, constants)
        if not isinstance(v, bool):
            raise EvalError(f"'{'or' if decides else 'and'}' needs booleans, got {shown(v)}")
        for operand in node.operands[1:]:
            if v is decides:
                break
            v = eval_bool(operand, env, constants)
        return v
    raise EvalError(f"bad expression node {node!r}")


def eval_bool(node: Expr, env: dict, constants: frozenset = frozenset()) -> bool:
    v = eval_expr(node, env, constants)
    if not isinstance(v, bool):
        raise EvalError(f"expected a boolean expression, got {shown(v)}")
    return v


def names_in(node: Expr) -> set[str]:
    """The identifiers ``node`` reads: the variables among them are its support."""
    if isinstance(node, Name):
        return {node.ident}
    if isinstance(node, (IntLit, BoolLit)):
        return set()
    parts = getattr(node, "operands", None) or [getattr(node, f) for f in ("left", "right", "operand")
                                                if hasattr(node, f)]
    return set().union(*map(names_in, parts))


# --- Set-valued evaluation ---------------------------------------------------

Key = tuple[type, Value]  # the type keeps True and 1 apart as dict keys
Partition = dict[Key, int]
BOOLS = {(bool, False), (bool, True)}  # the keys of a boolean partition


class Undecided(Exception):
    """The partition evaluator cannot decide an expression: ``eval_expr`` on
    some state would raise, or some operator pairs more blocks than its bound."""


def eval_partition(
    node: Expr, leaves: dict[str, Partition | None], constants: frozenset, care: int, limit: int
) -> Partition:
    """The states of the mask ``care`` grouped by the value of ``node``:
    ``{(type, value): mask}``, every mask non-empty, disjoint and inside
    ``care``, with ``eval_expr`` on each state of ``mask`` giving ``value``.

    ``leaves`` maps each variable to the partition of the whole space by its
    value (``None`` when it has none).  Operands are combined pairwise, left
    to right, but ``x = literal`` and ``x != literal`` read the literal's
    block of ``x`` alone (:func:`_value_test`).  Each later operand of
    ``and``/``or`` is evaluated only on the states the earlier ones do not
    decide, as ``eval_expr`` short-circuits per state.  Raises
    :class:`Undecided` where ``eval_expr`` would raise on some state of
    ``care``, and when one operator pairs more than ``limit`` blocks."""
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
        if node.op in _EQUALITY and isinstance(node.left, Name) and leaves.get(node.left.ident):
            key = _literal_key(node.right, leaves, constants)
            if key is not None:
                return _value_test(node.op, leaves[node.left.ident], key, care)
        left = eval_partition(node.left, leaves, constants, care, limit)
        right = eval_partition(node.right, leaves, constants, care, limit)
        table = _EQUALITY if node.op in _EQUALITY else _ORDER
        return _pairwise(node.op, table, left, right, limit)
    if isinstance(node, Arith):
        left = eval_partition(node.operands[0], leaves, constants, care, limit)
        for op, operand in zip(node.ops, node.operands[1:]):
            right = eval_partition(operand, leaves, constants, care, limit)
            left = _pairwise(op, _ARITH, left, right, limit)
        return left
    if isinstance(node, Not):
        inner = eval_partition(node.operand, leaves, constants, care, limit)
        if not inner.keys() <= BOOLS:
            raise Undecided("'not' needs a boolean")
        return {(bool, not v): m for (_, v), m in inner.items()}
    if isinstance(node, (And, Or)):
        decides = isinstance(node, Or)  # the value that decides the chain
        out: Partition = {}
        for operand in node.operands:  # ``care``: the states still undecided
            part = eval_partition(operand, leaves, constants, care, limit)
            if not part.keys() <= BOOLS:
                raise Undecided("'and'/'or' needs booleans")
            if (bool, decides) in part:
                out[(bool, decides)] = out.get((bool, decides), 0) | part[(bool, decides)]
            care = part.get((bool, not decides), 0)
            if not care:
                return out
        out[(bool, not decides)] = care
        return out
    raise Undecided(f"bad expression node {node!r}")


def _literal_key(node: Expr, leaves: dict, constants: frozenset) -> Key | None:
    """The key of ``node`` when it is a literal: a number, a truth value or
    a constant that no variable shadows."""
    if isinstance(node, (IntLit, BoolLit)):
        return (type(node.value), node.value)
    if isinstance(node, Name) and node.ident not in leaves and node.ident in constants:
        return (str, node.ident)
    return None


def _value_test(op: str, blocks: Partition, key: Key, care: int) -> Partition:
    """The partition of ``x op literal``, ``op`` ``=`` or ``!=``, from the
    value masks ``blocks`` of ``x``: the literal's block AND ``care``, where
    :func:`_pairwise` would pair every block.  Undecided, as there, when a
    block meeting ``care`` holds values of another type than ``key``'s."""
    if any(t is not key[0] and m & care for (t, _), m in blocks.items()):
        raise Undecided("comparison of different types")
    hit = blocks.get(key, 0) & care
    out: Partition = {}
    if hit:
        out[(bool, op == "=")] = hit
    if care & ~hit:
        out[(bool, op != "=")] = care & ~hit
    return out


def _pairwise(op: str, table: dict, left: Partition, right: Partition, limit: int) -> Partition:
    """The partition of ``left op right``, with ``op`` read from ``table``:
    ``_ARITH``, ``_EQUALITY`` or ``_ORDER``."""
    if len(left) * len(right) > limit:
        raise Undecided("more pairs than the work bound")
    fn = table.get(op)
    if fn is None:
        raise Undecided(f"bad operator {op!r}")
    out: Partition = {}
    for (lt, lv), lm in left.items():
        for (rt, rv), rm in right.items():
            m = lm & rm
            if not m:
                continue
            if table is _EQUALITY:
                if lt is not rt:
                    raise Undecided("comparison of different types")
            elif lt is not int or rt is not int:
                raise Undecided(f"{op!r} needs integers")
            value = fn(lv, rv)
            key = (type(value), value)
            out[key] = out.get(key, 0) | m
    return out


# The binding levels, loosest first.  An operator of level L takes operands of
# level L + 1 or tighter (a prefix operator: L or tighter), so a chain of one
# level is one node, and a comparison takes two operands and does not chain.
OR, AND, NOT, CMP, SUM, TERM, NEG = range(1, 8)

# each operator's level as a prefix and as an infix operator, 0 for neither
BINDING = {
    "or": (0, OR), "and": (0, AND), "not": (NOT, 0),
    "=": (0, CMP), "!=": (0, CMP), "<": (0, CMP), "<=": (0, CMP), ">": (0, CMP), ">=": (0, CMP),
    "+": (0, SUM), "-": (NEG, SUM), "*": (0, TERM),
}


def to_text(node: Expr) -> str:
    """Render an expression back to concrete syntax: ``parse`` of the text
    gives ``node`` back.  An operand is bracketed when it binds looser than
    its operator's operands must (``BINDING``), so an operand that is itself
    a chain of that level keeps its parentheses.  Unary minus prints as
    ``0 - x``, which parses to the same node."""

    def render(n: Expr, bound: int) -> str:
        if isinstance(n, IntLit):
            return str(n.value)
        if isinstance(n, BoolLit):
            return "true" if n.value else "false"
        if isinstance(n, Name):
            return n.ident
        if isinstance(n, Not):
            level = NOT
            s = "not " + render(n.operand, level)
        elif isinstance(n, Cmp):
            level = CMP
            s = render(n.left, level + 1) + f" {n.op} " + render(n.right, level + 1)
        elif isinstance(n, Arith):
            level = BINDING[n.ops[0]][1]
            s = render(n.operands[0], level + 1) + "".join(
                f" {op} {render(operand, level + 1)}" for op, operand in zip(n.ops, n.operands[1:]))
        elif isinstance(n, (And, Or)):
            word = "and" if isinstance(n, And) else "or"
            level = BINDING[word][1]
            s = f" {word} ".join(render(operand, level + 1) for operand in n.operands)
        else:
            raise EvalError(f"bad expression node {n!r}")
        return f"({s})" if level < bound else s

    return render(node, 0)
