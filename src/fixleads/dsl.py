"""Parser and elaborator for the `.evt` specification language.

The surface syntax declares one system per file: variables over finite
domains, an optional invariant, an init predicate, guarded events, variant
functions and liveness properties.  Parsing yields a plain AST, in which a
chain of one precedence level (``a + b - c``, ``p and q and r``) is one node
holding its operands, and a parenthesised operand stays one operand.
Elaboration evaluates every guard, action, predicate and variant on all
states at once, as partitions of the states by value
(``StateSpace.partition``), producing the relational objects the engines
work on.  An item the partitions cannot decide goes through the per-state
loop, which also reports its errors.

A `[]` between actions inside one event merges the outcomes into a single
event's relation (internal nondeterminism).  That is not the same as
declaring two events: fairness is granted per event, so an event made of
two branches is only guaranteed to run *some* branch fairly, never a
specific one.  Split into separate events when each branch must be treated
as its own helpful step.
"""
from __future__ import annotations

import itertools

from .events import Event, EventSystem, ModelError
from .exprs import (
    And,
    Arith,
    BoolLit,
    Cmp,
    EvalError,
    Expr,
    IntLit,
    Name,
    Not,
    Or,
    Undecided,
    eval_expr,
    to_text,
    true_mask,
)
from .records import Frozen, Record, setfield
from .states import (
    DEFAULT_STATE_CAP,
    SpaceError,
    StateSet,
    StateSpace,
    VarDecl,
    _mask_of,
    bit_positions,
    eval_pred,
)
from .variants import VariantFn


class DslError(Exception):
    """Syntax or elaboration failure, with source position when known."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        if line is not None:
            message = f"{line}:{col}: {message}"
        super().__init__(message)
        self.line = line
        self.col = col


# --- AST -------------------------------------------------------------------


class Domain(Frozen):
    __slots__ = ("kind", "lo", "hi", "names")

    def __init__(self, kind: str, lo: int = 0, hi: int = 0, names: tuple[str, ...] = ()):
        setfield(self, "kind", kind)  # 'range' | 'bool' | 'enum'
        setfield(self, "lo", lo)
        setfield(self, "hi", hi)
        setfield(self, "names", names)


class VarDeclAst(Frozen):
    __slots__ = ("name", "domain", "line")

    def __init__(self, name: str, domain: Domain, line: int = 0):
        setfield(self, "name", name)
        setfield(self, "domain", domain)
        setfield(self, "line", line)


class Assign(Frozen):
    """``var :in {choices}``; ``var := e`` is the one choice ``(e,)``."""

    __slots__ = ("var", "choices")

    def __init__(self, var: str, choices: tuple[Expr, ...]):
        setfield(self, "var", var)
        setfield(self, "choices", choices)


class ActionAst(Frozen):
    """One action branch: skip is the empty assignment list."""

    __slots__ = ("assigns",)

    def __init__(self, assigns: tuple[Assign, ...]):
        setfield(self, "assigns", assigns)


class EventAst(Frozen):
    __slots__ = ("name", "guard", "actions", "line")

    def __init__(self, name: str, guard: Expr | None, actions: tuple[ActionAst, ...],
                 line: int = 0):
        setfield(self, "name", name)
        setfield(self, "guard", guard)
        setfield(self, "actions", actions)
        setfield(self, "line", line)


class VariantAst(Frozen):
    __slots__ = ("name", "expr", "line")

    def __init__(self, name: str, expr: Expr, line: int = 0):
        setfield(self, "name", name)
        setfield(self, "expr", expr)
        setfield(self, "line", line)


class PropertyAst(Frozen):
    """``via`` names the helpful event of an ensures, ``using`` the variant
    of a leads-to."""

    __slots__ = ("name", "kind", "p", "q", "assumption", "via", "using", "with_si", "line")

    def __init__(self, name: str, kind: str, p: Expr, q: Expr, assumption: str,
                 via: str | None = None, using: str | None = None,
                 with_si: bool = False, line: int = 0):
        setfield(self, "name", name)
        setfield(self, "kind", kind)  # 'ensures' | 'leadsto'
        setfield(self, "p", p)
        setfield(self, "q", q)
        setfield(self, "assumption", assumption)  # 'mp' | 'wf'
        setfield(self, "via", via)
        setfield(self, "using", using)
        setfield(self, "with_si", with_si)
        setfield(self, "line", line)


class SpecAst(Record):
    __slots__ = ("name", "vars", "invariant", "init", "events", "variants", "properties")

    def __init__(self, name: str, vars: list[VarDeclAst] | None = None,
                 invariant: Expr | None = None, init: Expr | None = None,
                 events: list[EventAst] | None = None,
                 variants: list[VariantAst] | None = None,
                 properties: list[PropertyAst] | None = None):
        self.name = name
        self.vars = [] if vars is None else vars
        self.invariant = invariant
        self.init = init
        self.events = [] if events is None else events
        self.variants = [] if variants is None else variants
        self.properties = [] if properties is None else properties


# --- Tokenizer -------------------------------------------------------------

_KEYWORDS = {
    "system", "var", "invariant", "init", "event", "when", "then", "skip",
    "variant", "property", "ensures", "leadsto", "via", "under", "using",
    "with", "si", "mp", "wf", "bool", "true", "false", "not", "and", "or",
}

_DIGITS = "0123456789"

_SYMBOLS = [
    ":in", ":=", "..", "[]", "!=", "<=", ">=",
    "{", "}", "(", ")", ",", ":", "=", "<", ">", "+", "-", "*",
]


class Token(Frozen):
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        setfield(self, "kind", kind)  # 'ident' | 'int' | 'keyword' | symbol itself | 'eof'
        setfield(self, "text", text)
        setfield(self, "line", line)
        setfield(self, "col", col)


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":  # comment to end of line
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c in _DIGITS:  # str.isdigit also accepts '²', which int() rejects
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            toks.append(Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "keyword" if word in _KEYWORDS else "ident"
            toks.append(Token(kind, word, line, col))
            col += j - i
            i = j
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                toks.append(Token(sym, sym, line, col))
                col += len(sym)
                i += len(sym)
                break
        else:
            raise DslError(f"unexpected character {c!r}", line, col)
    toks.append(Token("eof", "", line, col))
    return toks


# --- Parser ----------------------------------------------------------------


class _Parser:
    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.pos = 0

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected: str) -> DslError:
        tok = self.peek()
        got = tok.text if tok.kind != "eof" else "end of input"
        return DslError(f"expected {expected}, got {got!r}", tok.line, tok.col)

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            raise self.fail(text or kind)
        return self.next()

    def at_keyword(self, *words: str) -> bool:
        tok = self.peek()
        return tok.kind == "keyword" and tok.text in words

    def expect_keyword(self, word: str) -> Token:
        if not self.at_keyword(word):
            raise self.fail(f"'{word}'")
        return self.next()

    def ident(self) -> Token:
        tok = self.peek()
        if tok.kind != "ident":
            raise self.fail("an identifier")
        return self.next()

    # spec := "system" IDENT item*
    def spec(self) -> SpecAst:
        self.expect_keyword("system")
        ast = SpecAst(self.ident().text)
        seen: dict[str, Token] = {}
        while self.peek().kind != "eof":
            self.item(ast, seen)
        return ast

    def _declare(self, kind: str, tok: Token, seen: dict[str, Token]) -> None:
        key = f"{kind}:{tok.text}"
        if key in seen:
            raise DslError(f"duplicate {kind} {tok.text!r}", tok.line, tok.col)
        seen[key] = tok

    def item(self, ast: SpecAst, seen: dict[str, Token]) -> None:
        if self.at_keyword("var"):
            self.next()
            name = self.ident()
            self._declare("var", name, seen)
            self.expect(":")
            ast.vars.append(VarDeclAst(name.text, self.domain(), name.line))
        elif self.at_keyword("invariant"):
            tok = self.next()
            if ast.invariant is not None:
                raise DslError("duplicate invariant", tok.line, tok.col)
            ast.invariant = self.expr()
        elif self.at_keyword("init"):
            tok = self.next()
            if ast.init is not None:
                raise DslError("duplicate init", tok.line, tok.col)
            ast.init = self.expr()
        elif self.at_keyword("event"):
            self.next()
            name = self.ident()
            self._declare("event", name, seen)
            guard = None
            if self.at_keyword("when"):
                self.next()
                guard = self.expr()
            self.expect_keyword("then")
            actions = [self.action()]
            while self.peek().kind == "[]":
                self.next()
                actions.append(self.action())
            ast.events.append(EventAst(name.text, guard, tuple(actions), name.line))
        elif self.at_keyword("variant"):
            self.next()
            name = self.ident()
            self._declare("variant", name, seen)
            self.expect(":=")
            ast.variants.append(VariantAst(name.text, self.expr(), name.line))
        elif self.at_keyword("property"):
            self.next()
            name = self.ident()
            self._declare("property", name, seen)
            self.expect(":")
            ast.properties.append(self.prop(name))
        else:
            raise self.fail("'var', 'invariant', 'init', 'event', 'variant' or 'property'")

    def domain(self) -> Domain:
        tok = self.peek()
        if self.at_keyword("bool"):
            self.next()
            return Domain("bool")
        if tok.kind == "{":
            self.next()
            names = [self.ident().text]
            while self.peek().kind == ",":
                self.next()
                names.append(self.ident().text)
            self.expect("}")
            return Domain("enum", names=tuple(names))
        lo = self.int_lit()
        self.expect("..")
        hi = self.int_lit()
        if lo > hi:
            raise DslError(f"empty range {lo}..{hi}", tok.line, tok.col)
        return Domain("range", lo, hi)

    def int_lit(self) -> int:
        sign = 1
        if self.peek().kind == "-":
            self.next()
            sign = -1
        return sign * int(self.expect("int").text)

    def action(self) -> ActionAst:
        if self.at_keyword("skip"):
            self.next()
            return ActionAst(())
        assigns = [self.assign()]
        while self.peek().kind == ",":
            self.next()
            assigns.append(self.assign())
        names = [a.var for a in assigns]
        if len(set(names)) != len(names):
            tok = self.peek()
            raise DslError("variable assigned twice in one action", tok.line, tok.col)
        return ActionAst(tuple(assigns))

    def assign(self) -> Assign:
        var = self.ident()
        if self.peek().kind == ":in":
            self.next()
            self.expect("{")
            choices = [self.expr()]
            while self.peek().kind == ",":
                self.next()
                choices.append(self.expr())
            self.expect("}")
            return Assign(var.text, tuple(choices))
        self.expect(":=")
        return Assign(var.text, (self.expr(),))

    def prop(self, name: Token) -> PropertyAst:
        if self.at_keyword("ensures"):
            self.next()
            p = self.braced_pred()
            q = self.braced_pred()
            via = None
            if self.at_keyword("via"):
                self.next()
                via = self.ident().text
            self.expect_keyword("under")
            assumption = self.assumption()
            return PropertyAst(name.text, "ensures", p, q, assumption, via=via, line=name.line)
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
                using = self.ident().text
            if self.at_keyword("with"):
                self.next()
                self.expect_keyword("si")
                with_si = True
            return PropertyAst(
                name.text, "leadsto", p, q, assumption,
                using=using, with_si=with_si, line=name.line,
            )
        raise self.fail("'ensures' or 'leadsto'")

    def assumption(self) -> str:
        if self.at_keyword("mp", "wf"):
            return self.next().text
        raise self.fail("'mp' or 'wf'")

    def braced_pred(self) -> Expr:
        self.expect("{")
        p = self.expr()
        self.expect("}")
        return p

    # expressions, lowest precedence first; a predicate is a boolean one.  A
    # lone operand is returned as it is, and a chain of one level is one node.
    def expr(self) -> Expr:
        e = self.and_expr()
        if self.peek().text == "or":
            return self._chain(e, self.and_expr, ("or",), Or)
        return e

    def and_expr(self) -> Expr:
        e = self.not_expr()
        if self.peek().text == "and":
            return self._chain(e, self.not_expr, ("and",), And)
        return e

    def _chain(self, first: Expr, operand, ops: tuple[str, ...], node: type) -> Expr:
        """``first (op operand)*`` over the ``ops`` of one precedence level."""
        links, operands = [], [first]
        while self.peek().text in ops:
            links.append(self.next().text)
            operands.append(operand())
        return Arith(tuple(links), tuple(operands)) if node is Arith else node(tuple(operands))

    def not_expr(self) -> Expr:
        if self.at_keyword("not"):
            self.next()
            return Not(self.not_expr())
        return self.cmp_expr()

    def cmp_expr(self) -> Expr:
        e = self.sum_expr()
        tok = self.peek()
        if tok.kind in ("=", "!=", "<", "<=", ">", ">="):
            self.next()
            return Cmp(tok.kind, e, self.sum_expr())
        return e

    def sum_expr(self) -> Expr:
        e = self.term_expr()
        if self.peek().text in ("+", "-"):
            return self._chain(e, self.term_expr, ("+", "-"), Arith)
        return e

    def term_expr(self) -> Expr:
        e = self.unary_expr()
        if self.peek().text == "*":
            return self._chain(e, self.unary_expr, ("*",), Arith)
        return e

    def unary_expr(self) -> Expr:
        if self.peek().kind == "-":
            self.next()
            return Arith(("-",), (IntLit(0), self.unary_expr()))
        return self.atom()

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "int":
            self.next()
            return IntLit(int(tok.text))
        if self.at_keyword("true"):
            self.next()
            return BoolLit(True)
        if self.at_keyword("false"):
            self.next()
            return BoolLit(False)
        if tok.kind == "ident":
            self.next()
            return Name(tok.text)
        if tok.kind == "(":
            self.next()
            e = self.expr()
            self.expect(")")
            return e
        raise self.fail("an expression")


def parse(text: str) -> SpecAst:
    return _Parser(tokenize(text)).spec()


# --- Printer ---------------------------------------------------------------


def print_spec(ast: SpecAst) -> str:
    """Concrete syntax for an AST; parse(print_spec(parse(t))) is stable."""
    lines = [f"system {ast.name}"]
    for v in ast.vars:
        d = v.domain
        if d.kind == "bool":
            dom = "bool"
        elif d.kind == "enum":
            dom = "{" + ", ".join(d.names) + "}"
        else:
            dom = f"{d.lo} .. {d.hi}"
        lines.append(f"var {v.name} : {dom}")
    if ast.invariant is not None:
        lines.append(f"invariant {to_text(ast.invariant)}")
    if ast.init is not None:
        lines.append(f"init {to_text(ast.init)}")
    for e in ast.events:
        head = f"event {e.name}"
        if e.guard is not None:
            head += f" when {to_text(e.guard)}"
        lines.append(head + " then " + " [] ".join(_action_text(a) for a in e.actions))
    for v in ast.variants:
        lines.append(f"variant {v.name} := {to_text(v.expr)}")
    for p in ast.properties:
        lines.append(f"property {p.name} : {_prop_text(p)}")
    return "\n".join(lines) + "\n"


def _action_text(a: ActionAst) -> str:
    if not a.assigns:
        return "skip"
    parts = []
    for item in a.assigns:
        if len(item.choices) == 1:
            parts.append(f"{item.var} := {to_text(item.choices[0])}")
        else:
            opts = ", ".join(to_text(c) for c in item.choices)
            parts.append(f"{item.var} :in {{{opts}}}")
    return ", ".join(parts)


def _prop_text(p: PropertyAst) -> str:
    out = f"{p.kind} {{{to_text(p.p)}}} {{{to_text(p.q)}}}"
    if p.kind == "ensures" and p.via is not None:
        out += f" via {p.via}"
    out += f" under {p.assumption}"
    if p.kind == "leadsto":
        if p.using is not None:
            out += f" using {p.using}"
        if p.with_si:
            out += " with si"
    return out


# --- Elaboration -----------------------------------------------------------


class Property(Record):
    """An elaborated property: predicate sets plus how to check them."""

    __slots__ = ("name", "kind", "p", "q", "assumption", "via", "using", "with_si")

    def __init__(self, name: str, kind: str, p: StateSet, q: StateSet, assumption: str,
                 via: str | None = None, using: str | None = None, with_si: bool = False):
        self.name = name
        self.kind = kind
        self.p = p
        self.q = q
        self.assumption = assumption
        self.via = via
        self.using = using
        self.with_si = with_si


class Elaborated(Record):
    __slots__ = ("system", "properties", "variants", "has_init")

    def __init__(self, system: EventSystem, properties: list[Property],
                 variants: dict[str, VariantFn], has_init: bool):
        self.system = system
        self.properties = properties
        self.variants = variants
        self.has_init = has_init


def elaborate(ast: SpecAst, cap: int = DEFAULT_STATE_CAP) -> Elaborated:
    if not ast.vars:
        raise DslError(f"system {ast.name!r} declares no variables")
    decls = [VarDecl(v.name, _domain_values(v, cap)) for v in ast.vars]
    try:
        space = StateSpace(decls, ast.invariant, cap)
    except (SpaceError, EvalError) as exc:
        raise DslError(str(exc)) from exc
    events = [_elaborate_event(space, e) for e in ast.events]
    if not events:
        raise DslError(f"system {ast.name!r} declares no events")

    if ast.init is not None:
        init = _pred_set(space, ast.init, "init")
        has_init = True
    else:
        init = space.empty()
        has_init = False
    try:
        system = EventSystem(space, events, init, name=ast.name)
    except ModelError as exc:
        raise DslError(str(exc)) from exc

    variants = {v.name: _variant(space, v) for v in ast.variants}

    event_names = {e.name for e in events}
    props: list[Property] = []
    for p in ast.properties:
        if p.via is not None and p.via not in event_names:
            raise DslError(f"property {p.name!r} names unknown event {p.via!r}", p.line, 1)
        if p.using is not None and p.using not in variants:
            raise DslError(f"property {p.name!r} names unknown variant {p.using!r}", p.line, 1)
        props.append(
            Property(
                p.name, p.kind,
                _pred_set(space, p.p, f"property {p.name!r}"),
                _pred_set(space, p.q, f"property {p.name!r}"),
                p.assumption, p.via, p.using, p.with_si,
            )
        )
    return Elaborated(system, props, variants, has_init)


def _domain_values(v: VarDeclAst, cap: int) -> tuple:
    d = v.domain
    if d.kind == "bool":
        return (False, True)
    if d.kind == "enum":
        return d.names
    # checked before the range is built: a huge range must not exhaust memory
    if d.hi - d.lo + 1 > cap:
        raise DslError(f"variable {v.name!r} has {d.hi - d.lo + 1} values, cap is {cap}")
    return tuple(range(d.lo, d.hi + 1))


def _pred_set(space: StateSpace, pred: Expr, what: str) -> StateSet:
    try:
        return StateSet(space, true_mask(space.partition(pred)))
    except Undecided:
        pass
    try:
        return eval_pred(space, pred)
    except EvalError as exc:
        raise DslError(f"{what}: {exc}") from exc


def _variant(space: StateSpace, v: VariantAst) -> VariantFn:
    """The variant's levels from its partition, or else state by state."""
    try:
        part = space.partition(v.expr)
        if all(t is int and val >= 0 for t, val in part):
            return VariantFn.from_levels(space, {val: m for (_, val), m in part.items()}, v.name)
    except Undecided:
        pass
    levels: dict[int, list[int]] = {}  # value -> the states that take it
    for i in bit_positions(space.full_mask):
        env = space.state_of(i)
        try:
            val = eval_expr(v.expr, env, space.constants)
        except EvalError as exc:
            raise DslError(f"variant {v.name!r}: {exc}", v.line, 1) from exc
        if type(val) is not int:
            raise DslError(f"variant {v.name!r} is not an integer at {env!r}", v.line, 1)
        if val < 0:
            raise DslError(f"variant {v.name!r}: variant is negative ({val}) at state {env!r}",
                           v.line, 1)
        levels.setdefault(val, []).append(i)
    return VariantFn.from_levels(
        space, {val: _mask_of(ix, space.raw_size) for val, ix in levels.items()}, v.name)


def _elaborate_event(space: StateSpace, e: EventAst) -> Event:
    guard = _pred_set(space, e.guard, f"event {e.name!r}") if e.guard is not None else space.universe()
    branches = [[(item.var, item.choices) for item in action.assigns] for action in e.actions]
    try:
        classes = space.action_classes(branches, guard.mask)
    except (Undecided, SpaceError):
        # a byte per 8 states: testing a bit of full_mask would shift all of it
        universe = space.full_mask.to_bytes((space.raw_size + 7) >> 3, "little")
        sources: dict[int, list[int]] = {}  # d -> the guarded states with an edge i -> i + d
        for i in guard:
            env = space.state_of(i)
            for action in e.actions:
                for t in _action_successors(space, e, i, env, action):
                    if not universe[t >> 3] >> (t & 7) & 1:
                        raise DslError(f"event {e.name!r} leaves the invariant at state {env!r}",
                                       e.line, 1)
                    sources.setdefault(t - i, []).append(i)
        classes = sorted((d, _mask_of(src, space.raw_size)) for d, src in sources.items())
    try:
        return Event(e.name, guard, classes)
    except ModelError as exc:
        raise DslError(str(exc), e.line, 1) from exc


def _action_successors(space: StateSpace, e: EventAst, i: int, env: dict,
                       action: ActionAst) -> list[int]:
    """The raw indices of the successors of one action branch at the state
    ``i`` whose values are ``env`` (parallel assigns; a :in assignment fans
    out over every listed value), by the offset arithmetic of
    ``StateSpace.action_classes``: setting ``x`` from ``u`` to ``v`` moves
    the index by ``offsets[x][v] - offsets[x][u]``.  It is that method's
    per-state reference, and the path that reports its errors but one: the
    caller tests the successors against the invariant.  A value is in its
    variable's domain when its ``(type, value)`` key is, so a bool variable
    admits no 0 or 1."""
    per_assign: list[list[int]] = []  # each assignment's moves
    for item in action.assigns:
        offsets = space.offsets.get(item.var)
        if offsets is None:
            raise DslError(f"event {e.name!r} assigns undeclared variable {item.var!r}",
                           e.line, 1)
        old = env[item.var]
        moves = []
        for ex in item.choices:
            try:
                val = eval_expr(ex, env, space.constants)
            except EvalError as exc:
                raise DslError(f"event {e.name!r}: {exc}", e.line, 1) from exc
            new = offsets.get((type(val), val))
            if new is None:
                raise DslError(
                    f"event {e.name!r} assigns {item.var} := {val!r}, "
                    f"outside its domain (at state {env!r})",
                    e.line, 1,
                )
            moves.append(new - offsets[type(old), old])
        per_assign.append(moves)
    return [i + sum(combo) for combo in itertools.product(*per_assign)]


def load_file(path: str, cap: int = DEFAULT_STATE_CAP) -> Elaborated:
    with open(path, encoding="utf-8") as fh:
        return elaborate(parse(fh.read()), cap)
