"""Parser and elaborator for the `.evt` specification language.

The surface syntax declares one system per file: variables over finite
domains, an optional invariant, an init predicate, guarded events, variant
functions and liveness properties.  One compiled pattern splits the text
into tokens, each its kind, text and offset; ``line:col`` is worked out from
the offset only for an error or a declaration.  Expressions are parsed by
precedence climbing over the binding table ``exprs.BINDING``, which the
printer reads too: one call per operand, so a parenthesis level costs two
stack frames (``expr`` and ``atom``).  Parsing yields a plain AST, in which
a chain of one binding level (``a + b - c``, ``p and q and r``) is one node
holding its operands, a comparison has two operands, a parenthesised
operand stays one operand, a variable declaration holds its values and an
event one tuple of ``Assign`` per action branch.  Elaboration evaluates
every guard, action, predicate and variant on all states at once, as
partitions of the states by value (``StateSpace.partition``), producing the
relational objects the engines work on.  An error is named at the lowest
state of a bad block; an event runs its actions on that one state again.

A `[]` between actions inside one event merges the outcomes into a single
event's relation (internal nondeterminism).  That is not the same as
declaring two events: fairness is granted per event, so an event made of
two branches is only guaranteed to run *some* branch fairly, never a
specific one.  Split into separate events when each branch must be treated
as its own helpful step.
"""
from __future__ import annotations

import functools
import gc
import itertools
import re
from array import array

from .events import Event, EventSystem, ModelError
from .exprs import (
    AND,
    BINDING,
    CMP,
    NEG,
    OR,
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
    eval_expr,
    names_in,
    shown,
)
from .records import Frozen, Record, setfield
from .states import (
    DEFAULT_STATE_CAP,
    SpaceError,
    StateSet,
    StateSpace,
    VarDecl,
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


class VarDeclAst(Frozen):
    """``domain`` holds the values: a ``range``, ``(False, True)`` or the
    enumeration's names."""

    __slots__ = ("name", "domain")

    def __init__(self, name: str, domain: range | tuple):
        setfield(self, "name", name)
        setfield(self, "domain", domain)


class Assign(Frozen):
    """``var :in {choices}``; ``var := e`` is the one choice ``(e,)``."""

    __slots__ = ("var", "choices")

    def __init__(self, var: str, choices: tuple[Expr, ...]):
        setfield(self, "var", var)
        setfield(self, "choices", choices)


class EventAst(Frozen):
    """``actions`` holds one tuple of ``Assign`` per branch; skip is ``()``."""

    __slots__ = ("name", "guard", "actions", "line")

    def __init__(self, name: str, guard: Expr | None, actions: tuple[tuple[Assign, ...], ...],
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

# each keyword and symbol maps to the one string that all its tokens share
_KEYWORDS = {w: w for w in (
    "system", "var", "invariant", "init", "event", "when", "then", "skip",
    "variant", "property", "ensures", "leadsto", "via", "under", "using",
    "with", "si", "mp", "wf", "bool", "true", "false", "not", "and", "or",
)}

_SYMBOLS = {s: s for s in (  # longest first where one is a prefix of another
    ":in", ":=", "..", "[]", "!=", "<=", ">=",
    "{", "}", "(", ")", ",", ":", "=", "<", ">", "+", "-", "*",
)}

# Skips blanks, newlines and comment lines, then takes one token.  The end of
# input after a last comment with no newline sits at that comment's '#'.
_TOKEN = re.compile(
    r"(?:[ \t\r\n]+|#[^\n]*\n)*"
    r"(?:(?P<int>[0-9]+)|(?P<word>\w+)"  # str.isdigit would accept '²', which int() rejects
    r"|(?P<symbol>" + "|".join(map(re.escape, _SYMBOLS)) + r")"
    r"|(?P<eof>(?:#[^\n]*)?\Z)|(?P<bad>.))",
    re.DOTALL,
)


def tokenize(text: str) -> tuple[list[str], list[str], array]:
    """The tokens of ``text`` as three parallel sequences: their kinds
    ('int', 'ident', 'keyword', the symbol itself, then 'eof'), their texts
    ('' for 'eof') and their offsets in ``text``."""
    kinds: list[str] = []
    texts: list[str] = []
    offsets = array("L")
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        at = m.start(kind)
        if kind == "eof":
            break
        tok = m[kind]
        if kind == "word":
            if tok in _KEYWORDS:
                kind, tok = "keyword", _KEYWORDS[tok]
            elif tok[0].isalpha() or tok[0] == "_":
                kind = "ident"
            else:  # a numeral other than 0-9, such as '²' or '٣'
                kind = "bad"
        elif kind == "symbol":
            kind = tok = _SYMBOLS[tok]
        if kind == "bad":
            line = text.count("\n", 0, at) + 1
            raise DslError(f"unexpected character {tok[0]!r}", line, at - text.rfind("\n", 0, at))
        kinds.append(kind)
        texts.append(tok)
        offsets.append(at)
    kinds.append("eof")
    texts.append("")
    offsets.append(at)
    return kinds, texts, offsets


# --- Parser ----------------------------------------------------------------


_NEITHER = (0, 0)  # the binding of a token that is no operator


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.kinds, self.texts, self.offsets = tokenize(text)
        self.pos = 0
        # the line of the offset ``_at``: the parser asks for positions in
        # text order, so it counts the newlines from the last one it asked for
        self._line, self._at = 1, 0

    def position(self, i: int) -> tuple[int, int]:
        """The line and column of token ``i``."""
        at = self.offsets[i]
        if at < self._at:
            self._line, self._at = 1, 0
        self._line += self.text.count("\n", self._at, at)
        self._at = at
        return self._line, at - self.text.rfind("\n", 0, at)

    def error(self, message: str, i: int | None = None) -> DslError:
        """``message`` at token ``i``, by default the next one."""
        return DslError(message, *self.position(self.pos if i is None else i))

    def peek(self) -> str:
        """The kind of the next token."""
        return self.kinds[self.pos]

    def next(self) -> str:
        """The text of the next token, which is consumed."""
        self.pos += 1
        return self.texts[self.pos - 1]

    def fail(self, expected: str) -> DslError:
        got = self.texts[self.pos] or "end of input"
        return self.error(f"expected {expected}, got {got!r}")

    def expect(self, kind: str) -> str:
        if self.kinds[self.pos] != kind:
            raise self.fail(kind)
        return self.next()

    def at_keyword(self, *words: str) -> bool:
        return self.texts[self.pos] in words  # only a keyword has a keyword's text

    def expect_keyword(self, word: str) -> None:
        if not self.at_keyword(word):
            raise self.fail(f"'{word}'")
        self.pos += 1

    def ident(self) -> str:
        if self.kinds[self.pos] != "ident":
            raise self.fail("an identifier")
        return self.next()

    # spec := "system" IDENT item*
    def spec(self) -> SpecAst:
        self.expect_keyword("system")
        ast = SpecAst(self.ident())
        seen: set[tuple[str, str]] = set()
        while self.peek() != "eof":
            self.item(ast, seen)
        return ast

    def declared(self, kind: str, seen: set) -> tuple[str, int]:
        """The name of a new ``kind`` declaration, and its line."""
        i = self.pos
        name = self.ident()
        line, col = self.position(i)
        if (kind, name) in seen:
            raise DslError(f"duplicate {kind} {name!r}", line, col)
        seen.add((kind, name))
        return name, line

    def item(self, ast: SpecAst, seen: set) -> None:
        if self.at_keyword("var"):
            self.next()
            name, _ = self.declared("var", seen)
            self.expect(":")
            ast.vars.append(VarDeclAst(name, self.domain()))
        elif self.at_keyword("invariant"):
            self.next()
            if ast.invariant is not None:
                raise self.error("duplicate invariant", self.pos - 1)
            ast.invariant = self.expr()
        elif self.at_keyword("init"):
            self.next()
            if ast.init is not None:
                raise self.error("duplicate init", self.pos - 1)
            ast.init = self.expr()
        elif self.at_keyword("event"):
            self.next()
            name, line = self.declared("event", seen)
            guard = None
            if self.at_keyword("when"):
                self.next()
                guard = self.expr()
            self.expect_keyword("then")
            actions = [self.action()]
            while self.peek() == "[]":
                self.next()
                actions.append(self.action())
            ast.events.append(EventAst(name, guard, tuple(actions), line))
        elif self.at_keyword("variant"):
            self.next()
            name, line = self.declared("variant", seen)
            self.expect(":=")
            ast.variants.append(VariantAst(name, self.expr(), line))
        elif self.at_keyword("property"):
            self.next()
            name, line = self.declared("property", seen)
            self.expect(":")
            ast.properties.append(self.prop(name, line))
        else:
            raise self.fail("'var', 'invariant', 'init', 'event', 'variant' or 'property'")

    def domain(self) -> range | tuple:
        if self.at_keyword("bool"):
            self.next()
            return (False, True)
        if self.peek() == "{":
            self.next()
            names = [self.ident()]
            while self.peek() == ",":
                self.next()
                names.append(self.ident())
            self.expect("}")
            return tuple(names)
        i = self.pos
        lo = self.int_lit()
        self.expect("..")
        hi = self.int_lit()
        if lo > hi:
            raise self.error(f"empty range {lo}..{hi}", i)
        return range(lo, hi + 1)

    def int_lit(self) -> int:
        """An integer literal of at most 4300 digits, as many as Python
        converts by default, after an optional minus sign."""
        sign = 1
        if self.peek() == "-":
            self.next()
            sign = -1
        text = self.expect("int")
        if len(text) > 4300:
            raise self.error(f"integer literal of {len(text)} digits is too long", self.pos - 1)
        return sign * int(text)

    def action(self) -> tuple[Assign, ...]:
        if self.at_keyword("skip"):
            self.next()
            return ()
        assigns = [self.assign()]
        while self.peek() == ",":
            self.next()
            if self.texts[self.pos] in {a.var for a in assigns}:  # only an ident has its text
                raise self.error("variable assigned twice in one action")
            assigns.append(self.assign())
        return tuple(assigns)

    def assign(self) -> Assign:
        var = self.ident()
        if self.peek() == ":in":
            self.next()
            self.expect("{")
            choices = [self.expr()]
            while self.peek() == ",":
                self.next()
                choices.append(self.expr())
            self.expect("}")
            return Assign(var, tuple(choices))
        self.expect(":=")
        return Assign(var, (self.expr(),))

    # prop := ("ensures" | "leadsto") {P} {Q} ["via" IDENT] "under" ("mp" | "wf")
    #         ["using" IDENT] ["with" "si"]
    # with 'via' only in an ensures, and 'using' and 'with si' only in a leads-to
    def prop(self, name: str, line: int) -> PropertyAst:
        if not self.at_keyword("ensures", "leadsto"):
            raise self.fail("'ensures' or 'leadsto'")
        kind = self.next()
        p, q = self.braced_pred(), self.braced_pred()
        leadsto = kind == "leadsto"
        via = None if leadsto else self.named("via")
        self.expect_keyword("under")
        if not self.at_keyword("mp", "wf"):
            raise self.fail("'mp' or 'wf'")
        assumption = self.next()
        using = self.named("using") if leadsto else None
        with_si = leadsto and self.at_keyword("with")
        if with_si:
            self.next()
            self.expect_keyword("si")
        return PropertyAst(name, kind, p, q, assumption, via, using, with_si, line)

    def named(self, word: str) -> str | None:
        """The identifier after an optional ``word``."""
        if not self.at_keyword(word):
            return None
        self.next()
        return self.ident()

    def braced_pred(self) -> Expr:
        self.expect("{")
        p = self.expr()
        self.expect("}")
        return p

    def expr(self, level: int = OR) -> Expr:
        """An expression whose operators bind at ``level`` or tighter, by
        precedence climbing over ``exprs.BINDING``: one call per operand.
        The operands of a level-L operator are parsed at L + 1 (a prefix
        operator's at L), so a chain of one level is one node, and only a
        looser operator may follow it; a predicate is a boolean one."""
        word = self.texts[self.pos]
        bound = BINDING.get(word, _NEITHER)[0]
        if bound >= level:
            self.pos += 1
            operand = self.expr(bound)
            left = Not(operand) if word == "not" else Arith(("-",), (IntLit(0), operand))
        else:
            left, bound = self.atom(), NEG  # every infix operator is looser than NEG
        while level <= (infix := BINDING.get(self.texts[self.pos], _NEITHER)[1]) < bound:
            if infix == CMP:
                op = self.next()
                left = Cmp(op, left, self.expr(CMP + 1))
            else:
                ops, operands = [], [left]
                while BINDING.get(self.texts[self.pos], _NEITHER)[1] == infix:
                    ops.append(self.next())
                    operands.append(self.expr(infix + 1))
                operands = tuple(operands)
                left = (Or(operands) if infix == OR else And(operands) if infix == AND
                        else Arith(tuple(ops), operands))
            bound = infix
        return left

    def atom(self) -> Expr:
        kind = self.peek()
        if kind == "int":
            return IntLit(self.int_lit())
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


def parse(text: str) -> SpecAst:
    enabled = gc.isenabled()  # the collector would walk the growing AST, which has no cycles
    gc.disable()
    try:
        return _Parser(text).spec()
    finally:
        if enabled:
            gc.enable()


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
    except SpaceError as exc:
        raise DslError(str(exc)) from exc
    except EvalError as exc:
        raise DslError(f"invariant: {exc}") from exc
    events = [_elaborate_event(space, e) for e in ast.events]
    if not events:
        raise DslError(f"system {ast.name!r} declares no events")

    has_init = ast.init is not None
    init = _pred_set(space, ast.init, "init") if has_init else space.empty()
    try:
        system = EventSystem(space, events, init, name=ast.name)
    except ModelError as exc:
        raise DslError(str(exc)) from exc

    variants = {v.name: _variant(space, v) for v in ast.variants}

    props: list[Property] = []
    for p in ast.properties:
        if p.via is not None and p.via not in system.by_name:
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
    if type(d) is not range:
        return d
    # checked before the range is listed: a huge range must not exhaust
    # memory, and len() raises on one longer than sys.maxsize
    if d.stop - d.start > cap:
        raise DslError(f"variable {v.name!r} has {d.stop - d.start} values, cap is {cap}")
    return tuple(d)


def _pred_set(space: StateSpace, pred: Expr, what: str) -> StateSet:
    try:
        return eval_pred(space, pred)
    except EvalError as exc:
        raise DslError(f"{what}: {exc}") from exc


def _variant(space: StateSpace, v: VariantAst) -> VariantFn:
    """The variant's levels from its partition; an error is named at the
    lowest state whose value is no natural number."""
    part = space.partition(v.expr)
    bad = [(m & -m, key) for key, m in part.items() if key[0] is not int or key[1] < 0]
    if bad:
        low, (kind, val) = min(bad)
        env = space.state_of(low.bit_length() - 1)
        message = (f": {val}" if kind is EvalError else f" is not an integer at {env!r}"
                   if kind is not int else f": variant is negative ({shown(val)}) at state {env!r}")
        raise DslError(f"variant {v.name!r}{message}", v.line, 1)
    return VariantFn.from_levels(space, {val: m for (_, val), m in part.items()}, v.name)


def _elaborate_event(space: StateSpace, e: EventAst) -> Event:
    guard = _pred_set(space, e.guard, f"event {e.name!r}") if e.guard is not None else space.universe()
    support = set()  # the variables the actions assign and the names they read
    for action in e.actions:
        for item in action:
            support.add(item.var)
            support.update(*map(names_in, item.choices))
    moves = functools.partial(_action_successors, space, e, e.actions, 0)
    classes, bad = space.action_classes(support, guard.mask, moves)
    if bad:  # run the actions on the lowest bad state alone, in branch order
        i = (bad & -bad).bit_length() - 1
        env = space.state_of(i)
        try:
            for action in e.actions:
                if any(not space.full_mask >> t & 1 for t in _action_successors(space, e, (action,), i, env)):
                    raise DslError(f"event {e.name!r} leaves the invariant at state {env!r}", e.line, 1)
        except EvalError as exc:
            raise DslError(str(exc), e.line, 1) from exc
        raise AssertionError(f"event {e.name!r} goes wrong at state {env!r}, but not when run there")
    try:
        return Event(e.name, guard, classes)
    except ModelError as exc:
        raise DslError(str(exc), e.line, 1) from exc


def _action_successors(space: StateSpace, e: EventAst, actions: tuple[tuple[Assign, ...], ...],
                       i: int, env: dict) -> tuple[int, ...]:
    """The raw indices of the successors of the action branches ``actions``
    at the state ``i`` whose values are ``env``; with ``i = 0``, their
    moves, which ``StateSpace.action_classes`` reads once per assignment of
    the event's support.  This is the one place that knows how an
    assignment moves an index: setting ``x`` from ``u`` to ``v`` moves it
    by ``offsets[x][v] - offsets[x][u]``, parallel assignments add their
    moves, and a :in assignment fans out over its values.  Every error but
    a successor outside the invariant, which the caller tests, is raised in
    branch order as an :class:`EvalError`.  A value is in its variable's
    domain when its ``(type, value)`` key is: a bool variable admits no 1."""
    out: list[int] = []
    for action in actions:
        shift, fans = i, []  # the one-choice assignments' moves added up; the others'
        for item in action:
            offsets = space.offsets.get(item.var)
            if offsets is None:
                raise EvalError(f"event {e.name!r} assigns undeclared variable {item.var!r}")
            old = env[item.var]
            here = offsets[type(old), old]
            moves = []
            for ex in item.choices:
                try:
                    val = eval_expr(ex, env, space.constants)
                except EvalError as exc:
                    raise EvalError(f"event {e.name!r}: {exc}") from exc
                new = offsets.get((type(val), val))
                if new is None:
                    raise EvalError(f"event {e.name!r} assigns {item.var} := {shown(val)}, "
                                    f"outside its domain (at state {env!r})")
                moves.append(new - here)
            if len(moves) == 1:
                shift += moves[0]
            else:
                fans.append(moves)
        out += [shift + sum(pick) for pick in itertools.product(*fans)] if fans else [shift]
    return tuple(out)


def load_file(path: str, cap: int = DEFAULT_STATE_CAP) -> Elaborated:
    with open(path, encoding="utf-8") as fh:
        return elaborate(parse(fh.read()), cap)
