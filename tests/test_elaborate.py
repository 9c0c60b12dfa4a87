"""Set-valued elaboration against the per-state reference.

``dsl.elaborate`` builds guards, predicates and variant levels with
``StateSpace.partition``: from per-variable value masks
(``exprs.eval_partition``) while every pairing of blocks stays within the
work bound, and otherwise from ``StateSpace.table``, one evaluation per
assignment of the variables an item reads.  Each event's offset classes are
the table of its moves (``StateSpace.action_classes``), one
``dsl._action_successors`` run per assignment of the variables its actions
read and assign.  A table is lifted from the value masks while its support's
assignments stay within the work bound, and is otherwise one pass over the
states.  An error is named at the lowest state of a bad block.

Two references are kept as they were.  The per-state elaborator: one
``eval_expr`` walk per state for each predicate, variant and action;
``_load(text, "reference")`` runs ``elaborate`` with it, and
``_load(text, "table")`` with every partition taken by the table, so the
three can be compared on any model.  And the set path that events took
before the table of moves: each assignment's new values paired with its old
ones on the value masks, parallel assignments' moves added
(``_ref_set_classes``); every event it decides must get the same classes
and bad mask, and every table the same partition by lift and by pass.
"""
import contextlib
import io
import itertools
import math
import os
import random
import sys
import tracemalloc
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fixleads import dsl, exprs, states
from fixleads.cli import main
from fixleads.dsl import DslError, _Parser, elaborate, parse
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
    Undecided,
    eval_bool,
    eval_expr,
    eval_partition,
    names_in,
    to_text,
)
from fixleads.printer import print_spec
from fixleads.states import StateSet, StateSpace, _mask_of, bit_positions
from fixleads.variants import VariantFn

from conftest import event_from_rel, raw_states
from test_bench_models import FAMILIES

PERF = sys.modules["perfbench_models"]  # perfbench/models.py, as test_bench_models loads it
DATA = os.path.join(os.path.dirname(__file__), "data")


# --- the per-state reference ---------------------------------------------------


def _ref_eval_pred(space, pred):
    members = [i for i in bit_positions(space.full_mask)
               if eval_bool(pred, space.state_of(i), space.constants)]
    return StateSet(space, _mask_of(members, space.raw_size))


def _ref_variant(space, v):
    levels = {}  # value -> the states that take it
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


def _ref_event(space, e):
    guard = (dsl._pred_set(space, e.guard, f"event {e.name!r}") if e.guard is not None
             else space.universe())
    universe = space.full_mask.to_bytes((space.raw_size + 7) >> 3, "little")
    sources = {}  # d -> the guarded states with an edge i -> i + d
    for i in guard:
        env = space.state_of(i)
        for action in e.actions:
            for t in _ref_action_successors(space, e, i, env, action):
                if not universe[t >> 3] >> (t & 7) & 1:
                    raise DslError(f"event {e.name!r} leaves the invariant at state {env!r}",
                                   e.line, 1)
                sources.setdefault(t - i, []).append(i)
    classes = sorted((d, _mask_of(src, space.raw_size)) for d, src in sources.items())
    try:
        return dsl.Event(e.name, guard, classes)
    except dsl.ModelError as exc:
        raise DslError(str(exc), e.line, 1) from exc


def _ref_action_successors(space, e, i, env, action):
    per_assign = []  # each assignment's moves
    for item in action:
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


def _ref_set_classes(space, e, guard):
    """``(classes, bad)`` of the event ``e`` on the mask ``guard`` by the set
    path that ``StateSpace.action_classes`` had: setting ``x`` from ``u`` to
    ``v`` moves a state by ``offsets[x][v] - offsets[x][u]``, so each
    assignment pairs the blocks of its new values with those of its old ones,
    parallel assignments add their moves (``_ref_add_moves``), choices and
    branches take the union.  ``Undecided`` where a variable has no value
    masks, an expression raises or a pairing passes the work bound: there
    the table of moves decided already."""
    if not guard:
        return (), 0
    merged, bad = {}, 0  # move -> the states that take it; the states that go wrong
    bound = space._bound(guard)
    for action in e.actions:
        step = {0: guard}
        for item in action:
            old = space.value_masks.get(item.var)
            if old is None:  # undeclared, or without value masks
                raise Undecided(f"no value masks for {item.var!r}")
            offset = space.offsets[item.var]
            this = {}
            for expr in item.choices:
                part = eval_partition(expr, space.value_masks, space.constants, guard, bound)
                if len(part) * len(old) > bound:
                    raise Undecided("more pairs than the work bound")
                for key, m in part.items():
                    if key not in offset:  # a value outside the domain
                        bad |= m
                        continue
                    for old_key, old_mask in old.items():
                        moved = m & old_mask
                        if moved:
                            d = offset[key] - offset[old_key]
                            this[d] = this.get(d, 0) | moved
            step = _ref_add_moves(step, this, bound)
        for d, m in step.items():
            merged[d] = merged.get(d, 0) | m
    for d, src in merged.items():  # the sources whose target leaves the universe
        bad |= src & ~(space.full_mask >> d if d >= 0 else space.full_mask << -d)
    return tuple(sorted(merged.items())), bad


def _ref_add_moves(a, b, bound):
    """``{d1 + d2: ma & mb}``: the moves of two assignments made in parallel;
    ``Undecided`` when that pairs more than ``bound`` blocks."""
    if len(a) * len(b) > bound:
        raise Undecided("more pairs than the work bound")
    out = {}
    for d1, m1 in a.items():
        for d2, m2 in b.items():
            m = m1 & m2
            if m:
                out[d1 + d2] = out.get(d1 + d2, 0) | m
    return out


def _undecided(*args, **kwargs):
    raise Undecided("table only")


PATCHES = {
    "sets": [],
    "table": [(states, "eval_partition", _undecided)],
    "reference": [(states, "eval_pred", _ref_eval_pred), (dsl, "eval_pred", _ref_eval_pred),
                  (dsl, "_variant", _ref_variant), (dsl, "_elaborate_event", _ref_event)],
}


def _load(text, how="sets"):
    """``(elaborated, None)`` or ``(None, error text)``."""
    with contextlib.ExitStack() as stack:
        for owner, name, replacement in PATCHES[how]:
            stack.enter_context(mock.patch.object(owner, name, replacement))
        try:
            return elaborate(parse(text)), None
        except DslError as exc:
            return None, str(exc)


def _reference(text):
    return _load(text, "reference")


def _digest(elab):
    """Everything elaboration produces, with the relation in both formats and
    the classes built again from the per-state relation; past 2000 raw
    states, whose per-state relation takes a full-width mask per state, the
    classes alone."""
    sys_ = elab.system
    small = sys_.space.raw_size <= 2000
    return {
        "states": raw_states(sys_.space) if small else sys_.space.full_mask,
        "events": [(e.name, e.guard.mask, e.classes()) + (
                    (e.rel, event_from_rel(e.name, e.guard, e.rel).classes()) if small else ())
                   for e in sys_.events],
        "init": sys_.init.mask,
        "properties": [(p.name, p.p.mask, p.q.mask) for p in elab.properties],
        "variants": {name: v._levels for name, v in elab.variants.items()},
    }


def _assert_same_as_reference(text):
    """The same elaboration, or the same error text, from the sets, from the
    table alone and from the per-state reference; and the tables and classes
    of the sets as :func:`_assert_same_as_set_path` checks them."""
    ref, ref_err = _reference(text)
    for how in ("sets", "table"):
        got, got_err = _load(text, how)
        assert got_err == ref_err, (how, text)
        if ref is not None:
            assert _digest(got) == _digest(ref), (how, text)
    _assert_same_as_set_path(text)
    return _load(text)[0]


def _assert_same_as_set_path(text):
    """Load ``text``, then check each call of ``StateSpace.table``: its
    partition is the one that the pass gives on the same ``(names, fn,
    care)`` and, where every support variable has value masks, the one that
    the lift gives, whatever the work bound (:func:`_table_by`).
    And each event that the deleted set path decides has its classes, and
    its bad mask, outside which the classes are compared.  Returns how many
    events the set path decided."""
    classes, tables = [], []
    with _recording("action_classes", classes), _recording("table", tables):
        _load(text)
    for (space, names, fn, care), part in tables:
        assert _table_by("pass", space, names, fn, care) == part, text
        if all(space.value_masks[v.name] for v in space.vars if v.name in names):
            assert _table_by("lift", space, names, fn, care) == part, text
    decided = 0
    for ((space, _, guard, _), (got, bad)), e in zip(classes, parse(text).events):
        try:
            want, want_bad = _ref_set_classes(space, e, guard)
        except Undecided:
            continue
        decided += 1
        assert bad == want_bad, (e.name, text)
        assert _outside(got, bad) == _outside(want, bad), (e.name, text)
    return decided


def _table_by(way, space, names, fn, care):
    """``space.table(names, fn, care)`` built by ``way``, "lift" or "pass",
    whatever the work bound: the bound is set past every support or below
    every one."""
    bound = math.inf if way == "lift" else -1
    with mock.patch.object(StateSpace, "_bound", lambda self, care: bound), _passes() as passes:
        part = space.table(names, fn, care)
    assert passes.called == (way == "pass")
    return part


def _outside(classes, bad):
    """The classes with the states of ``bad`` taken out."""
    return [(d, src & ~bad) for d, src in classes if src & ~bad]


def _recording(name, calls):
    """A mock that runs ``StateSpace.<name>`` and appends each call's
    arguments, ``self`` first, and its result to ``calls``."""
    real = getattr(StateSpace, name)

    def run(*args):
        out = real(*args)
        calls.append((args, out))
        return out

    return mock.patch.object(StateSpace, name, autospec=True, side_effect=run)


def _tables():
    """A mock that counts the calls of ``StateSpace.table``, which it runs."""
    return mock.patch.object(StateSpace, "table", autospec=True, side_effect=StateSpace.table)


def _passes():
    """A mock that counts the per-state passes of ``StateSpace.table``."""
    return mock.patch.object(StateSpace, "_pass", autospec=True, side_effect=StateSpace._pass)


# --- differential: random models ---------------------------------------------

VAR_NAMES = ["a", "b", "x", "y"]
ENUM_NAMES = ["a", "p", "q"]  # "a" may also name a variable, which shadows it


@st.composite
def _domains(draw, wide=False):
    """Up to three variables over small domains; with ``wide``, half the
    time a first range of 65-67 values, more than sqrt(N) and more than 64,
    which has no value masks and so takes the per-state pass."""
    n = draw(st.integers(1, 3))
    names = draw(st.permutations(VAR_NAMES))[:n]
    decls = []
    for name in names:
        kind = draw(st.sampled_from(["range", "range", "bool", "enum"]))
        if wide and not decls and draw(st.integers(0, 1)) == 0:
            kind = "wide"
        if kind in ("range", "wide"):
            lo = draw(st.integers(-2, 1))
            hi = lo + draw(st.integers(0, 3) if kind == "range" else st.integers(64, 66))
            kind = "range"
            decls.append((name, "range", f"{lo} .. {hi}", tuple(str(v) for v in range(lo, hi + 1))))
        elif kind == "bool":
            decls.append((name, "bool", "bool", ("true", "false")))
        else:
            vals = draw(st.lists(st.sampled_from(ENUM_NAMES), min_size=1, max_size=3, unique=True))
            decls.append((name, "enum", "{" + ", ".join(vals) + "}", tuple(vals)))
    return decls


# the levels of the expression grammar, loosest first; an atom binds tightest
OR, AND, NOT, CMP, SUM, TERM, ATOM = range(1, 8)


def _expr(draw, decls, want, depth):
    """``(text, level)`` of an expression meant to have type ``want`` ('int',
    'bool' or 'enum'), where ``level`` is the grammar level of its top node;
    now and then an operand of the wrong type, so the error paths are drawn
    too.  A chain has 2-4 operands; an operand is written bare where the
    grammar allows it, which draws flat chains and operands of a tighter
    level, and is parenthesised now and then anyway, which draws nested
    chains such as ``(a - b) - c`` and ``a - (b - c)``."""
    if draw(st.integers(0, 49)) == 25:  # hypothesis favours the bounds
        want = draw(st.sampled_from(["int", "bool", "enum"]))
    of_type = [name for name, kind, _, _ in decls if kind == {"int": "range"}.get(want, want)]
    if depth == 0 or draw(st.integers(0, 2)) == 0:
        options = [("name", n) for n in of_type]
        if want == "int":
            options.append(("lit", str(draw(st.integers(-2, 3)))))
        elif want == "bool":
            options.append(("lit", draw(st.sampled_from(["true", "false"]))))
        else:  # mostly a declared constant, now and then an unknown name
            declared = [v for _, kind, _, values in decls if kind == "enum" for v in values]
            options.append(("lit", draw(st.sampled_from(declared or ENUM_NAMES))))
        return draw(st.sampled_from(options))[1], ATOM

    def sub(w, above):
        """An operand that must bind tighter than the level ``above``."""
        text, level = _expr(draw, decls, w, depth - 1)
        return text if level > above and draw(st.booleans()) else f"({text})"

    def chain(w, level, ops):
        text = sub(w, level)
        for _ in range(draw(st.integers(1, 3))):
            text += f" {draw(st.sampled_from(ops))} {sub(w, level)}"
        return text, level

    if want == "int":
        return chain("int", TERM, ["*"]) if draw(st.booleans()) else chain("int", SUM, ["+", "-"])
    if want == "bool":
        form = draw(st.sampled_from(["cmp", "eq", "not", "and", "or"]))
        if form == "cmp":
            op = draw(st.sampled_from(["<", "<=", ">", ">="]))
            return f"{sub('int', CMP)} {op} {sub('int', CMP)}", CMP
        if form == "eq":
            t = draw(st.sampled_from(["int", "bool", "enum"]))
            return f"{sub(t, CMP)} {draw(st.sampled_from(['=', '!=']))} {sub(t, CMP)}", CMP
        if form == "not":
            return f"not {sub('bool', AND)}", NOT
        return chain("bool", AND if form == "and" else OR, [form])
    return _expr(draw, decls, "enum", depth - 1)


def _value_type(kind):
    return {"range": "int"}.get(kind, kind)


@st.composite
def models(draw):
    decls = draw(_domains(wide=True))
    expr = lambda want, depth=2: _expr(draw, decls, want, depth)[0]  # noqa: E731
    lines = ["system m"] + [f"var {name} : {dom}" for name, _, dom, _ in decls]

    def value(kind, values):
        """Half the time a value of the domain, so that more models load."""
        if draw(st.booleans()):
            return draw(st.sampled_from(values))
        return expr(_value_type(kind), 1)

    if draw(st.booleans()):  # the second disjunct keeps a state in most draws
        name, _, _, values = decls[0]
        lines.append(f"invariant {expr('bool')} or {name} = {values[0]}")
    if draw(st.booleans()):
        lines.append(f"init {expr('bool')}")
    for i in range(draw(st.integers(1, 3))):
        branches = []
        for _ in range(draw(st.integers(1, 2))):
            targets = draw(st.lists(st.sampled_from(decls), max_size=2, unique=True))
            assigns = []
            for name, kind, _, values in targets:
                if draw(st.integers(0, 2)) == 0:
                    choices = [value(kind, values) for _ in range(draw(st.integers(1, 3)))]
                    assigns.append(f"{name} :in {{{', '.join(choices)}}}")
                else:
                    assigns.append(f"{name} := {value(kind, values)}")
            branches.append(", ".join(assigns) or "skip")
        guard = f" when {expr('bool')}" if draw(st.booleans()) else ""
        lines.append(f"event e{i}{guard} then {' [] '.join(branches)}")
    using = ""
    if draw(st.booleans()):
        lines.append(f"variant v := {expr('int')}")
        using = " using v" if draw(st.booleans()) else ""
    lines.append(f"property l : leadsto {{{expr('bool')}}} {{{expr('bool')}}} under mp{using}")
    return "\n".join(lines) + "\n"


@settings(max_examples=1500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(models())
def test_partition_elaboration_matches_the_per_state_reference(text):
    _assert_same_as_reference(text)


def test_the_generator_draws_loading_and_failing_models():
    """The differential test above is only as good as its draws: models that
    load and models that fail, loading ones that take a per-state pass and
    loading ones whose every table is lifted from the value masks, and
    loading ones with an event that the deleted set path decides."""
    counts = {"fails": 0, "pass": 0, "lift only": 0, "long chains": 0, "set path": 0}

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(models())
    def count(text):
        with _passes() as passes:
            elab = _load(text)[0]
        if elab is None:
            counts["fails"] += 1
            return
        counts["pass" if passes.called else "lift only"] += 1
        counts["long chains"] += any(len(getattr(n, "operands", ())) > 2 for n in _nodes(text))
        counts["set path"] += _assert_same_as_set_path(text) > 0

    count()
    assert counts["fails"] >= 20 and counts["lift only"] >= 40 and counts["pass"] >= 20, counts
    assert counts["long chains"] >= 30 and counts["set path"] >= 40, counts


def _nodes(text):
    """Every expression node of the model ``text``."""
    ast = parse(text)
    stack = [ast.invariant, ast.init] + [v.expr for v in ast.variants]
    for e in ast.events:
        stack += [e.guard] + [c for a in e.actions for item in a for c in item.choices]
    for p in ast.properties:
        stack += [p.p, p.q]
    while stack:
        node = stack.pop()
        if node is not None:
            yield node
            stack += [getattr(node, f) for f in ("left", "right", "operand") if hasattr(node, f)]
            stack += getattr(node, "operands", ())


def _parse_expr(text):
    parser = _Parser(text)
    node = parser.expr()
    assert parser.peek() == "eof", text
    return node


def _left_nested(node):
    """``node`` with each chain folded into nested two-operand nodes, left
    operand first: ``a - b + c`` as ``(a - b) + c``."""
    if isinstance(node, (Arith, And, Or)):
        folded = _left_nested(node.operands[0])
        for i, operand in enumerate(node.operands[1:]):
            pair = (folded, _left_nested(operand))
            folded = Arith((node.ops[i],), pair) if isinstance(node, Arith) else type(node)(pair)
        return folded
    if isinstance(node, Cmp):
        return Cmp(node.op, _left_nested(node.left), _left_nested(node.right))
    if isinstance(node, Not):
        return Not(_left_nested(node.operand))
    return node


def _outcome(node, env, constants):
    """The key of the block that ``env`` falls in: its value's, or the error's."""
    try:
        value = eval_expr(node, env, constants)
    except EvalError as exc:
        return EvalError, str(exc)
    return type(value), value


def _blocks_of(blocks, size):
    """The keys of the blocks that hold each state."""
    return [[key for key, m in blocks.items() if m >> i & 1] for i in range(size)]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_a_chain_prints_back_exactly_and_evaluates_as_its_left_nested_form(data):
    """On parser-built expressions: ``to_text`` reparses to the same node;
    ``eval_expr`` gives each state the value, or the error text, of the
    chain's left-nested form, the shape the grammar reads it in; a partition
    puts each state in the block of that value or error, and so does the set
    evaluator wherever it decides."""
    decls = data.draw(_domains())
    text = _expr(data.draw, decls, data.draw(st.sampled_from(["int", "bool", "enum"])), 3)[0]
    node = _parse_expr(text)
    assert _parse_expr(to_text(node)) == node
    nested = _left_nested(node)
    read = {"range": int, "bool": lambda v: v == "true", "enum": str}
    sp = states.StateSpace([states.VarDecl(name, tuple(read[kind](v) for v in values))
                            for name, kind, _, values in decls])
    outcomes = [[_outcome(node, sp.state_of(i), sp.constants)] for i in range(sp.size)]
    for i, [outcome] in enumerate(outcomes):
        assert outcome == _outcome(nested, sp.state_of(i), sp.constants), (text, i)
    assert _blocks_of(sp.partition(node), sp.size) == outcomes, text
    try:
        decided = eval_partition(node, sp.value_masks, sp.constants, sp.full_mask, 1 << 30)
    except Undecided:
        assert any(key[0] is EvalError for [key] in outcomes) or None in sp.value_masks.values()
    else:
        assert _blocks_of(decided, sp.size) == outcomes, text


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(models())
def test_a_generated_model_prints_back_exactly(text):
    ast = parse(text)
    assert parse(print_spec(ast)) == ast


def _read_data(name):
    with open(os.path.join(DATA, f"{name}.evt"), encoding="utf-8") as fh:
        return fh.read()


@pytest.mark.parametrize("name", sorted(n[:-4] for n in os.listdir(DATA) if n.endswith(".evt")))
def test_data_models_match_the_per_state_reference(name):
    _assert_same_as_reference(_read_data(name))


WIDE_COUNTER = ("system wide\nvar c : 0 .. 19999\nvar b : bool\ninit c = 0\n"
                "event inc when c < 19999 then c := c + 1\nevent flip then b := not b\n"
                "property top_wf : leadsto {true} {c = 19999} under wf\n")
FAMILY_MODELS = {
    **{f"ring{n}-{seed}": PERF.ring(n, seed, assume=("wf", "mp", "wf-si"))
       for n in (3, 4, 5) for seed in (1, 2)},
    **{f"starve{n}-{seed}": PERF.ring(n, seed, starve=True, assume=("wf", "mp"))
       for n in (3, 4, 5) for seed in (1, 2)},
    **{f"lattice{k}x{m}-{seed}": PERF.lattice(k, m, seed)
       for k, m in ((3, 9), (2, 4), (2, 60)) for seed in (1, 2)},
    "lattice2x199-1": PERF.lattice(2, 199, 1),
}


@pytest.mark.parametrize("name", sorted(FAMILY_MODELS) + ["wide-counter"])
def test_benchmark_families_match_the_per_state_reference(name):
    _assert_same_as_reference(FAMILY_MODELS[name].text if name in FAMILY_MODELS else WIDE_COUNTER)
    if name in FAMILY_MODELS:  # the set path decided every event of these
        text = FAMILY_MODELS[name].text
        assert _assert_same_as_set_path(text) == len(parse(text).events)


SMALL = {
    "lattice": ("system lattice\nvar c0 : 0 .. 3\nvar c1 : 0 .. 3\ninit c0 = 0 and c1 = 0\n"
                "event inc0 when c0 < 3 then c0 := c0 + 1\n"
                "event inc1 when c1 < 3 then c1 := c1 + 1, c0 :in {c0, 0}\n"
                "variant togo := (3 - c0) + (3 - c1)\n"
                "property top : leadsto {true} {c1 = 3} under mp using togo\n"),
    # the invariant leaves holes in the universe
    "wedge": ("system wedge\nvar c0 : 0 .. 3\nvar c1 : 0 .. 3\ninvariant c1 <= c0\n"
              "init c0 = 0\nevent inc0 when c0 < 3 then c0 := c0 + 1\n"
              "event inc1 when c1 < c0 then c1 := c1 + 1 [] c0 := c0, c1 := 0\n"
              "property top : leadsto {true} {c1 = 3} under wf\n"),
}


def test_each_triangle3_event_is_one_offset_class():
    """The invariant ``c2 <= c1 <= c0`` only masks the universe: each counter
    step moves every state it is enabled on by its variable's stride."""
    sys_ = elaborate(parse(_read_data("triangle3"))).system
    assert [len(e.classes()) for e in sys_.events] == [1, 1, 1]


def _assert_lifted(text):
    """``text`` loads with every table lifted from the value masks: no
    per-state pass, no ``eval_expr`` call from ``states``, and each event
    runs ``_action_successors`` at most once per assignment of its support
    that meets its guard.  Returns the elaboration."""
    runs = []  # the event of each _action_successors call

    def run(space, e, *args):
        runs.append(e.name)
        return real(space, e, *args)

    real = dsl._action_successors
    with _passes() as passes, mock.patch.object(states, "eval_expr") as evals, \
            mock.patch.object(dsl, "_action_successors", side_effect=run):
        elab, err = _load(text)
    assert err is None and not passes.called and not evals.called
    sp = elab.system.space
    for e, event in zip(parse(text).events, elab.system.events):
        support = {item.var for a in e.actions for item in a}.union(
            *(names_in(c) for a in e.actions for item in a for c in item.choices))
        digits = [v.name for v in sp.vars if v.name in support]
        met = {tuple(sp.state_of(i)[name] for name in digits) for i in event.guard}
        calls = runs.count(e.name)
        assert calls <= len(met) and (calls > 0) == bool(met), (e.name, calls)
    return elab


@pytest.mark.parametrize("name", ["ring3", "starve3", "lattice", "wedge"])
def test_models_over_small_domains_take_no_per_state_step(name):
    """Every guard, predicate and variant of these models is decided by the
    value masks, and every action by its moves lifted from them, only on
    its guard: ``c0 := c0 + 1`` leaves the domain outside ``c0 < 3``, which
    must not send it to a per-state pass."""
    text = SMALL.get(name) or _read_data(name)
    assert _digest(_assert_lifted(text)) == _digest(_reference(text)[0])


# the gated benchmark's models must stay on the value masks
GATED = {"ring4": FAMILIES["ring4"].text, "starve4": FAMILIES["starve4"].text,
         **{f"lattice3x9-{seed}": PERF.lattice(3, 9, seed).text for seed in (1, 2)}}


@pytest.mark.parametrize("name", sorted(GATED))
def test_the_benchmark_models_take_no_table(name):
    """No table of these models walks the states: each is lifted from the
    value masks (:func:`_assert_lifted`)."""
    _assert_lifted(GATED[name])


# --- the partition evaluator's pitfalls ----------------------------------------


def _space(text):
    return elaborate(parse(text)).system.space


BASE = "system s\nvar x : 0 .. 2\nvar a : {a, b}\nvar on : bool\nvar n : 0 .. 1\n"


def test_and_short_circuits_per_state():
    # x = true is a type error on every state, but no state evaluates it
    elab = _assert_same_as_reference(BASE + "event e when false and (x = true) then skip\n")
    assert elab.system.event("e").guard.is_empty()
    sp = elab.system.space
    assert sp.partition(parse(BASE + "init false and (x = true)\n").init) == {
        (bool, False): sp.full_mask}
    # where the left operand lets it through, the error is the reference's
    text = BASE + "init x = 1 and (x = true)\nevent e then skip\n"
    assert _load(text)[1] == _reference(text)[1] == "init: cannot compare 1 with True"


def test_each_three_operand_chain_partitions_as_it_evaluates():
    """Every ``and``/``or`` chain of three of these atoms, one a type error:
    a later operand sees only the states the earlier ones leave undecided,
    so the set evaluator puts each state in the block of its value, and it
    is undecided only where some state raises; there the partition holds
    that state in the error's block."""
    sp = _space(BASE + "event e then skip\n")
    atoms = ["x = 0", "x != 1", "x >= 1", "true", "false", "x = true"]
    for word, operands in itertools.product(["and", "or"], itertools.product(atoms, repeat=3)):
        node = _parse_expr(f" {word} ".join(operands))
        outcomes = [[_outcome(node, sp.state_of(i), sp.constants)] for i in range(sp.size)]
        assert _blocks_of(sp.partition(node), sp.size) == outcomes, node
        try:
            blocks = eval_partition(node, sp.value_masks, sp.constants, sp.full_mask, sp.raw_size)
        except Undecided:
            assert any(key[0] is EvalError for [key] in outcomes), node
            continue
        assert _blocks_of(blocks, sp.size) == outcomes, node


def test_a_variable_shadows_the_constant_of_the_same_name():
    sp = _space(BASE + "event e then skip\n")
    expr = parse(BASE + "init a = a\n").init
    assert sp.partition(expr) == {(bool, True): sp.full_mask}
    elab = _assert_same_as_reference(BASE + "init a = a\nevent e then a := b\n")
    assert elab.system.init.is_universe()


def test_true_and_1_stay_apart():
    sp = _space(BASE + "event e then skip\n")
    on = sp.partition(parse(BASE + "init on\n").init)
    n = sp.partition(parse(BASE + "init n = 1\n").init.left)
    assert set(on) == {(bool, False), (bool, True)}
    assert set(n) == {(int, 0), (int, 1)}
    # a bool assigned 1, or an int assigned true, is outside the domain
    for action in ("on := n", "n := on", "on :in {true, 1}"):
        text = BASE + f"event e when n = 1 then {action}\n"
        assert "outside its domain" in _load(text)[1]
        assert _load(text)[1] == _reference(text)[1]
    on_n = parse(BASE + "init on = n\n").init  # True = 1 is a type error, not True
    with pytest.raises(Undecided):
        eval_partition(on_n, sp.value_masks, sp.constants, sp.full_mask, sp.raw_size)
    assert {key for key in sp.partition(on_n)} == {
        (EvalError, f"cannot compare {on!r} with {n!r}") for on in (False, True) for n in (0, 1)}


def test_out_of_domain_names_the_first_guarded_state():
    text = ("system s\nvar y : {p, q}\nvar x : 0 .. 3\ninit x = 0\n"
            "event e when x >= 1 and y = q then x := x + 2\n")
    assert _load(text)[1] == (
        "5:1: event 'e' assigns x := 4, outside its domain (at state {'y': 'q', 'x': 2})")
    assert _reference(text)[1] == _load(text)[1]


def test_leaving_the_invariant_gives_the_same_message():
    text = ("system s\nvar x : 0 .. 3\nvar y : 0 .. 2\ninvariant x + y < 4\n"
            "init x = 0\nevent e when y < 2 then y := y + 1\n")
    assert _load(text)[1] == "6:1: event 'e' leaves the invariant at state {'x': 3, 'y': 0}"
    assert _reference(text)[1] == _load(text)[1]


def test_negative_variant_gives_the_same_message():
    text = "system s\nvar x : -2 .. 1\ninit x = 0\nevent e then skip\nvariant v := x + 1\n"
    assert _load(text)[1] == "5:1: variant 'v': variant is negative (-1) at state {'x': -2}"
    assert _reference(text)[1] == _load(text)[1]


def test_a_bad_variant_names_its_lowest_bad_state():
    text = ("system s\nvar y : {p, q}\nvar x : 0 .. 3\ninit x = 0\nevent e then skip\n"
            "variant v := EXPR\n")
    for expr, message in (
        ("x - 2", "variant is negative (-2) at state {'y': 'p', 'x': 0}"),
        ("3 - x - x", "variant is negative (-1) at state {'y': 'p', 'x': 2}"),
        ("x = 1", "is not an integer at {'y': 'p', 'x': 0}"),
        ("x + (x >= 2 and y = q)", "arithmetic '+' needs integers, got 0, False"),
    ):
        err = _load(text.replace("EXPR", expr))[1]
        assert err == _reference(text.replace("EXPR", expr))[1]
        assert err.startswith("6:1: variant 'v'") and err.endswith(message), err


def test_an_event_error_is_the_first_of_its_lowest_bad_state_in_branch_order():
    """At x = 1, y = 2, the one guarded state, ``x := x + 1`` leaves the
    invariant and ``y := y + 1`` leaves y's domain: the message is that of
    the first branch, and within a branch an assignment's error comes before
    any successor is tested against the invariant."""
    text = ("system s\nvar x : 0 .. 3\nvar y : 0 .. 2\ninvariant x + y < 4\n"
            "event e when x >= 1 and y = 2 then ACTIONS\n")
    leaves = "5:1: event 'e' leaves the invariant at state {'x': 1, 'y': 2}"
    outside = "5:1: event 'e' assigns y := 3, outside its domain (at state {'x': 1, 'y': 2})"
    for actions, message in (("x := x + 1 [] y := y + 1", leaves),
                             ("y := y + 1 [] x := x + 1", outside),
                             ("x := x + 1, y := y + 1", outside),
                             ("x := x + (y = 2)", "5:1: event 'e': arithmetic '+' needs integers, "
                                                  "got 1, True")):
        assert _load(text.replace("ACTIONS", actions))[1] == message
        assert _reference(text.replace("ACTIONS", actions))[1] == message


def test_an_invariant_error_names_the_invariant(tmp_path, capsys):
    for invariant, message in (("z = 1", "unknown identifier 'z'"),
                               ("x + 1", "expected a boolean expression, got 1")):
        path = tmp_path / "m.evt"
        path.write_text(f"system s\nvar x : 0 .. 3\ninvariant {invariant}\ninit x = 0\n"
                        "event e then skip\nproperty p : leadsto {true} {true} under mp\n")
        assert main(["check", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {path}: invariant: {message}\n", err


def _check_quietly(text, tmp_path):
    path = tmp_path / "m.evt"
    path.write_text(text)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(["check", str(path)])


# a chain of one operator parses left-deep; each guard holds at one value of x
FLAT_CHAINS = {
    "plus": (" + ".join(["x"] * 5000) + " <= 3", [0]),  # the sum takes the per-state path
    "and": (" and ".join(["x >= 0"] * 4999 + ["x != 2"]), [0, 1, 3]),
    "or": (" or ".join(["x = 9"] * 4999 + ["x = 1"]), [1]),
}


@pytest.mark.parametrize("op", FLAT_CHAINS)
def test_a_flat_chain_of_5000_terms_loads(tmp_path, op):
    guard, values = FLAT_CHAINS[op]
    text = (f"system s\nvar x : 0 .. 3\ninit x = 0\nevent e when {guard} then skip\n"
            "property p : leadsto {true} {true} under mp\n")
    assert _check_quietly(text, tmp_path) == 0
    elab = _assert_same_as_reference(text)
    assert [elab.system.space.state_of(s)["x"] for s in elab.system.event("e").guard] == values


def test_a_too_deep_expression_raises_recursion_error():
    """As ``eval_expr`` would on any state: the CLI reports it as a model
    nested too deeply (exit 2)."""
    sp = _space(BASE + "event e then skip\n")
    deep = Name("x")  # x + (x + (x + ...)): real nesting, which no chain parses to
    for _ in range(5000):
        deep = Arith(("+",), (Name("x"), deep))
    with pytest.raises(RecursionError):
        sp.partition(Cmp(">=", deep, IntLit(0)))


# x and y have value masks; on the diagonal x = y, pairing their 100 blocks
# each (10 000 pairs) costs more than one table pass over its 100 states
WIDE = "system s\nvar x : 0 .. 99\nvar y : 0 .. 99\n"


def test_a_pairing_over_the_work_bound_takes_the_table():
    sp = _space(WIDE + "event e then skip\n")
    diagonal = sp.partition(parse(WIDE + "init x = y\n").init)[(bool, True)]
    total = parse(WIDE + "init x + y\n").init
    with pytest.raises(Undecided, match="work bound"):
        eval_partition(total, sp.value_masks, sp.constants, diagonal, sp._bound(diagonal))
    with _tables() as tables:
        blocks = sp.partition(total, diagonal)
    assert tables.call_count == 1
    assert blocks == {(int, 2 * v): 1 << sp.index_of({"x": v, "y": v}) for v in range(100)}
    # on the guard x = y, the 10 000 assignments of x and y pass the work
    # bound too: the event's table of moves walks its 100 states
    text = WIDE + "init x = 0\nevent e when x = y then x := 99 - y, y := x\n"
    _assert_same_as_reference(text)
    with _passes() as passes:
        elab = _load(text)[0]
    assert passes.call_count == 1
    assert len(elab.system.event("e").classes()) == 100


def test_the_table_takes_memory_linear_in_the_states(tmp_path):
    """``c`` has more than sqrt(N) values, so ``inc`` takes the table, which
    writes each state into its block: one class, and no full-width mask per
    state (20 000 raw states)."""
    path = tmp_path / "wide.evt"
    path.write_text("system wide\nvar c : 0 .. 9999\nvar b : bool\ninit c = 0\n"
                    "event inc when c < 9999 then c := c + 1\nevent flip then b := not b\n")
    tracemalloc.start()
    try:
        sys_ = dsl.load_file(str(path)).system
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sys_.space.value_masks["c"] is None
    assert len(sys_.event("inc").classes()) == 1
    assert peak < 8 << 20, peak


def test_a_variable_with_many_values_has_no_value_masks():
    text = "system s\nvar x : 0 .. 99\nvar b : bool\nevent e when x < 50 then x := x + 1\n"
    sp = _space(text)
    assert sp.value_masks["x"] is None and sp.value_masks["b"] is not None
    _assert_same_as_reference(text)
    with _tables() as tables:  # the guard, then the action
        _load(text)
    assert tables.call_count == 2


def test_eval_partition_keeps_every_block_inside_care():
    sp = _space(BASE + "event e then skip\n")
    care = 0b101101
    part = eval_partition(parse(BASE + "init x + n\n").init, sp.value_masks,
                          sp.constants, care, sp.size)
    union = 0
    for m in part.values():
        assert m and m & ~care == 0 and m & union == 0
        union |= m
    assert union == care


# --- a variable compared with a literal ------------------------------------------


def _pairwise_outcome(node, sp, care):
    """``node`` by :func:`exprs._pairwise` over every block of both operands,
    as ``eval_partition`` took every comparison before the value test, with
    no work bound: its partition, or ``Undecided``."""
    bound = 1 << 30
    try:
        left = eval_partition(node.left, sp.value_masks, sp.constants, care, bound)
        right = eval_partition(node.right, sp.value_masks, sp.constants, care, bound)
        return exprs._pairwise(node.op, exprs._EQUALITY, left, right, bound)
    except Undecided:
        return Undecided


def _eval_outcome(node, sp, care, bound):
    try:
        return eval_partition(node, sp.value_masks, sp.constants, care, bound)
    except Undecided:
        return Undecided


def _value_test_outcome(node, sp, care):
    """``node`` by ``eval_partition``, which must read it as a value test and
    pair no blocks, so no work bound can stop it."""
    with mock.patch.object(exprs, "_pairwise", side_effect=AssertionError("paired")):
        return _eval_outcome(node, sp, care, 0)


def _is_value_test(node, sp):
    return (isinstance(node, Cmp) and node.op in ("=", "!=") and isinstance(node.left, Name)
            and sp.value_masks.get(node.left.ident) is not None
            and exprs._literal_key(node.right, sp.value_masks, sp.constants) is not None)


@pytest.mark.parametrize("name", sorted(n[:-4] for n in os.listdir(DATA) if n.endswith(".evt"))
                         + sorted(FAMILY_MODELS))
def test_a_value_test_is_the_pairing_of_its_blocks(name):
    text = FAMILY_MODELS[name].text if name in FAMILY_MODELS else _read_data(name)
    sp = _space(text)
    rng = random.Random(name)
    cares = [sp.full_mask, rng.getrandbits(sp.raw_size) & sp.full_mask, 1 << (sp.raw_size - 1)]
    tests = {node for node in _nodes(text) if _is_value_test(node, sp)}
    assert tests
    for node, care in itertools.product(tests, cares):
        assert _value_test_outcome(node, sp, care) == _pairwise_outcome(node, sp, care), node


_LITERALS = [IntLit(0), IntLit(1), IntLit(2), IntLit(5), BoolLit(True), BoolLit(False),
             Name("a"), Name("b"), Name("c")]  # var a shadows constant a; c is unknown


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["x", "a", "on", "n"]), st.sampled_from(["=", "!="]),
       st.sampled_from(_LITERALS), st.integers(0, (1 << 24) - 1))
def test_a_random_value_test_is_the_pairing_of_its_blocks(var, op, literal, care):
    """Bool literals on int variables and ints on bools are Undecided, as
    the pairing's type check makes them; a constant compares by name."""
    sp = _space(BASE + "event e then skip\n")
    node = Cmp(op, Name(var), literal)
    care &= sp.full_mask
    want = _pairwise_outcome(node, sp, care)
    if _is_value_test(node, sp):
        assert _value_test_outcome(node, sp, care) == want
    else:  # a variable on the right or an unknown name: paired as before
        assert _eval_outcome(node, sp, care, 1 << 30) == want


def test_lift_and_pass_give_the_same_partition():
    """For every support, from no variable to all of them and a name that is
    no variable, and for empty, full and holed cares: both ways of building
    a table give one partition of ``care``, errors in their own blocks, and
    each calls ``fn`` once per assignment of the support that meets
    ``care``."""
    sp = _space(BASE + "event e then skip\n")  # 24 states
    calls = []

    def fn(env):
        calls.append(tuple(env.items()))
        if env.get("x") == 2 and env.get("on"):
            raise EvalError(f"no move at {env!r}")
        return (env.get("x", 0) + env.get("n", 0)) % 2 == 0

    variables = [v.name for v in sp.vars]
    names = variables + ["q"]
    cares = [0, sp.full_mask, 0b101101, 0x555555, 1 << 23, 0xF0F0F0]
    for k, care in itertools.product(range(len(names) + 1), cares):
        for support in map(set, itertools.combinations(names, k)):
            met = {tuple((v, sp.state_of(i)[v]) for v in variables if v in support)
                   for i in bit_positions(care)}
            parts = []
            for way in ("lift", "pass"):
                calls.clear()
                parts.append(_table_by(way, sp, support, fn, care))
                assert sorted(calls) == sorted(met), (way, support, care)
            lifted, passed = parts
            assert lifted == passed, (support, care)
            union = 0
            for m in lifted.values():
                assert m and m & ~care == 0 and m & union == 0
                union |= m
            assert union == care
            assert any(key[0] is EvalError for key in lifted) == any(
                dict(a).get("x") == 2 and dict(a).get("on") for a in met)
