"""Transformer algebra: the two interpretations, pairing, and fixpoints;
and the module's place as reference code that no engine imports."""
import ast
import glob
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

import fixleads
from fixleads import events, transformers
from fixleads.states import StateSet, set_table, sets_from_json
from fixleads.transformers import (
    Choice,
    Dovetail,
    FixpointError,
    Guard,
    Precond,
    Rel,
    Seq,
    Skip,
    apply,
    gfp,
    grd,
    lfp,
    liberal,
    pre,
)

from conftest import event_from_rel, make_space

SP = make_space(3)


def s(*xs):
    return SP.from_indices(xs)


U = SP.universe()


def test_apply_precond_and_guard():
    assert apply(Precond(s(0, 1), Skip()), s(1, 2)).mask == s(1).mask
    assert apply(Guard(s(0), Skip()), s(1)).mask == s(1, 2).mask


def test_apply_dovetail_of_guards():
    t = Dovetail(Guard(s(0), Skip()), Guard(s(1), Skip()))
    assert apply(t, s(0)).mask == s(0, 2).mask


def test_liberal_precond_universe_case():
    t = Precond(SP.empty(), Skip())
    assert liberal(t, s(1)).is_empty()
    assert liberal(t, U).is_universe()
    assert liberal(Skip(), s(2)).mask == s(2).mask


def test_pre_values():
    assert pre(Skip(), U).is_universe()
    assert pre(Precond(s(0, 1), Skip()), U).mask == s(0, 1).mask
    t = Dovetail(Guard(s(0), Skip()), Guard(s(1), Skip()))
    assert pre(t, U).is_universe()


def test_grd_values():
    assert grd(Skip(), U).is_universe()
    assert grd(Guard(s(0, 1), Skip()), U).mask == s(0, 1).mask
    t = Dovetail(Guard(s(0), Skip()), Guard(s(1), Skip()))
    assert grd(t, U).mask == s(0, 1).mask


def test_choice_and_seq():
    t = Choice(Guard(s(0), Skip()), Guard(s(1), Skip()))
    r = s(1)
    assert apply(t, r).mask == (apply(Guard(s(0), Skip()), r) & apply(Guard(s(1), Skip()), r)).mask
    seq = Seq(Precond(s(0, 1), Skip()), Guard(s(2), Skip()))
    assert apply(seq, s(1)).mask == (s(0, 1) & (s(0, 1) | s(1))).mask


def test_lfp_examples():
    fix, trace = lfp(lambda x: x | s(0), SP)
    assert fix.mask == s(0).mask
    assert [st_.mask for st_ in trace.steps] == [0, s(0).mask, s(0).mask]
    assert trace.kind == "least"
    fix, _ = lfp(lambda x: x, SP)
    assert fix.is_empty()


def test_gfp_examples():
    fix, trace = gfp(lambda x: x, SP)
    assert fix.is_universe()
    assert trace.kind == "greatest"
    fix, _ = gfp(lambda x: x & s(0), SP)
    assert fix.mask == s(0).mask


def test_nonmonotone_function_detected():
    with pytest.raises(FixpointError):
        lfp(lambda x: x.complement(), SP)
    with pytest.raises(FixpointError):
        gfp(lambda x: x.complement(), SP)


def test_trace_shape():
    fix, trace = lfp(lambda x: x | s(1) | StateSet(SP, (x.mask << 1) & SP.full_mask), SP)
    assert trace.steps[0].is_empty()
    assert trace.steps[-1].mask == trace.steps[-2].mask
    for a, b in zip(trace.steps, trace.steps[1:]):
        assert a.is_subset(b)
    _, down = gfp(lambda x: x & StateSet(SP, x.mask >> 1), SP)
    for t in (trace, down):
        # the trace as a report carries it: every iterate an index into the set table
        header, data = set_table(SP, t.to_json())
        table = header["sets"]
        sets = sets_from_json(SP, json.loads(json.dumps(header)))
        assert data["kind"] == t.kind and data["steps"][-1] == data["steps"][-2]
        assert [sets[i].mask for i in data["steps"]] == [x.mask for x in t.steps]
        # each iterate past the smallest is its neighbour towards it plus its new rows
        chain = sorted(set(data["steps"]))
        assert [table[i]["base"] for i in chain[2:]] == chain[1:-1]


# --- randomized algebra laws ----------------------------------------------

_sets = st.integers(0, SP.full_mask).map(lambda m: StateSet(SP, m))


def _rel_event(draw_rel):
    guard_mask, images = draw_rel
    guard = StateSet(SP, guard_mask)
    rel = {}
    for s_idx in guard:
        img = images[s_idx] or 1
        rel[s_idx] = img & SP.full_mask
    return Rel(event_from_rel("e", guard, rel))


_rels = st.tuples(
    st.integers(0, SP.full_mask),
    st.tuples(*[st.integers(1, SP.full_mask) for _ in range(SP.size)]),
).map(_rel_event)

_terms = st.recursive(
    st.one_of(st.just(Skip()), _rels),
    lambda kids: st.one_of(
        st.builds(Guard, _sets, kids),
        st.builds(Precond, _sets, kids),
        st.builds(Choice, kids, kids),
        st.builds(Seq, kids, kids),
        st.builds(Dovetail, kids, kids),
    ),
    max_leaves=6,
)


@settings(max_examples=200, deadline=None)
@given(_terms, _sets)
def test_pairing_condition(t, r):
    assert apply(t, r).mask == (liberal(t, r) & pre(t, U)).mask


@settings(max_examples=200, deadline=None)
@given(_terms, _sets, _sets)
def test_apply_monotone(t, r1, r2):
    lo, hi = r1 & r2, r1 | r2
    assert apply(t, lo).is_subset(apply(t, hi))


# strictness needs total events: a partial guard is a miracle outside it
_total_rels = st.tuples(
    st.just(SP.full_mask),
    st.tuples(*[st.integers(1, SP.full_mask) for _ in range(SP.size)]),
).map(_rel_event)

_strict_terms = st.recursive(
    st.one_of(st.just(Skip()), _total_rels),
    lambda kids: st.one_of(
        st.builds(Precond, _sets, kids),
        st.builds(Choice, kids, kids),
        st.builds(Seq, kids, kids),
    ),
    max_leaves=6,
)


@settings(max_examples=100, deadline=None)
@given(_strict_terms)
def test_strictness_of_strict_terms(t):
    """Terms without guards or dovetail obey the excluded miracle law."""
    assert apply(t, SP.empty()).is_empty()


@settings(max_examples=200, deadline=None)
@given(_terms, _terms)
def test_dovetail_guard_property(a, b):
    assert grd(Dovetail(a, b), U).mask == (grd(a, U) | grd(b, U)).mask


@settings(max_examples=100, deadline=None)
@given(_sets)
def test_lfp_prefix_containment(b):
    """Every iterate of a monotone least fixpoint stays below the fixpoint."""
    fix, trace = lfp(lambda x: b | StateSet(SP, (x.mask << 1) & SP.full_mask), SP)
    for step in trace.steps:
        assert step.is_subset(fix)


def _named_modules(path) -> set:
    """The modules that the file at ``path`` imports, as names relative to
    the package, and the strings in its tuples, as the package's lazy
    registration of its submodules names them."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Tuple):
            named.update(e.value for e in node.elts if isinstance(e, ast.Constant))
        elif isinstance(node, ast.Import):
            named.update(alias.name.removeprefix("fixleads.") for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("fixleads")):
            module = (node.module or "").removeprefix("fixleads").lstrip(".")
            named.update([module] if module else [alias.name for alias in node.names])
    return named


def test_no_module_but_the_package_imports_the_reference_semantics():
    paths = sorted(glob.glob(os.path.join(os.path.dirname(fixleads.__file__), "*.py")))
    importers = [os.path.basename(p) for p in paths if "transformers" in _named_modules(p)]
    assert importers == ["__init__.py"]


def test_the_reference_semantics_imports_no_engine():
    named = _named_modules(transformers.__file__)
    assert named >= {"events", "states"}
    assert not named & {"mp", "wf", "oracle", "certificates", "dsl", "cli"}
    # the fair loop's termination set is the reference's alone
    assert fixleads.fair_loop_termination is transformers.fair_loop_termination
    assert not hasattr(fixleads.wf, "fair_loop_termination")


@pytest.mark.parametrize("name", ["lfp", "gfp", "IterateTrace", "FixpointError"])
def test_the_kernel_chains_are_the_same_objects_under_every_name(name):
    assert getattr(fixleads, name) is getattr(transformers, name) is getattr(events, name)
