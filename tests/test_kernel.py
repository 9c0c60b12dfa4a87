"""The offset-class kernel of ``EventSystem`` and ``Event`` against the Kleene
iteration over the transformer term algebra and the per-state relation, on
random systems and on every ``tests/data`` model."""
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from fixleads import load_file
from fixleads.cli import resolve
from fixleads.events import Event, EventSystem, _post
from fixleads.mp import leadsto_mp
from fixleads.oracle import oracle_mp, oracle_reachable, oracle_wf, validate_counterexample
from fixleads.states import StateSet
from fixleads.transformers import (apply, fair_loop_liberal, fair_loop_termination, gfp, grd, lfp,
                                   system_choice, wf_step)
from fixleads.wf import fair_loop, leadsto_wf

from conftest import random_set, random_system

DATA = os.path.join(os.path.dirname(__file__), "data")
MODELS = sorted(name for name in os.listdir(DATA) if name.endswith(".evt"))


def _system(seed, idle_event):
    """A random system; with ``idle_event`` it also has an event whose guard is
    empty.  States outside every guard have no successor."""
    rng = random.Random(seed)
    sys_ = random_system(rng)
    if idle_event:
        space = sys_.space
        events = list(sys_.events) + [Event("never", space.empty(), ())]
        sys_ = EventSystem(space, events, sys_.init)
    return rng, sys_


def _masks(steps):
    return [s.mask for s in steps]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_apply_all_is_the_system_choice(seed, idle_event):
    rng, sys_ = _system(seed, idle_event)
    t = system_choice(sys_)
    for _ in range(5):
        r = random_set(rng, sys_.space)
        assert sys_.apply_all(r).mask == apply(t, r).mask
        for e in sys_.events:
            assert e.guarded_apply(r).mask == (e.guard & e.apply(r)).mask


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_attract_is_the_kleene_trace(seed, idle_event):
    rng, sys_ = _system(seed, idle_event)
    t = system_choice(sys_)
    for _ in range(5):
        a, b = random_set(rng, sys_.space), random_set(rng, sys_.space)
        _, trace = lfp(lambda x: a | (b & apply(t, x)), sys_.space)
        assert _masks(sys_.attract(a, b).steps) == _masks(trace.steps)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_weak_attract_is_the_kleene_gfp(seed, idle_event):
    rng, sys_ = _system(seed, idle_event)
    t = system_choice(sys_)
    for _ in range(5):
        a, b = random_set(rng, sys_.space), random_set(rng, sys_.space)
        fix, _ = gfp(lambda x: a | (b & apply(t, x)), sys_.space)
        assert sys_.weak_attract(a, b).mask == fix.mask


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_strongest_invariant_is_the_kleene_lfp(seed, idle_event):
    rng, sys_ = _system(seed, idle_event)

    def post(x):
        """The union of the events' successors of the states of ``x``, read
        from the per-state relation."""
        mask = 0
        for s in x:
            for e in sys_.events:
                mask |= e.rel.get(s, 0)
        return StateSet(sys_.space, mask)

    fix, _ = lfp(lambda x: sys_.init | post(x), sys_.space)
    assert sys_.strongest_invariant().mask == fix.mask
    for _ in range(5):
        r = random_set(rng, sys_.space)
        assert _post(sys_.classes(), r.mask) == post(r).mask


@pytest.mark.parametrize("seed", range(40))
def test_fair_loop_is_the_kleene_loop(seed):
    """``wf.fair_loop``, its early exit included, against the reference's
    Kleene loops, below and at the full postcondition."""
    rng = random.Random(seed)
    sys_ = random_system(rng, max_states=7)
    for g in sys_.events:
        for r in (random_set(rng, sys_.space), sys_.space.universe()):
            q = random_set(rng, sys_.space)
            for q in (q, q | g.guarded_apply(r)):  # the second exits early
                reference = fair_loop_liberal(sys_, q, g, r) & fair_loop_termination(sys_, q, g)
                assert fair_loop(sys_, q, g, r).mask == reference.mask


def _kleene_leadsto(sys_, b, semantics):
    """The leads-to fixpoint and trace of ``semantics`` over the term algebra."""
    if semantics == "mp":
        t, enabled = system_choice(sys_), grd(system_choice(sys_), sys_.space.universe())
        return lfp(lambda x: b | (enabled & apply(t, x)), sys_.space)
    return lfp(lambda x: b | wf_step(sys_, x), sys_.space)


@pytest.mark.parametrize("model", MODELS)
def test_engines_match_kleene_and_oracle_on_models(model):
    elab = load_file(os.path.join(DATA, model))
    sys_ = elab.system
    claims = [resolve(elab, p) for p in elab.properties if p.kind == "leadsto"]
    assert claims
    for claim in claims:
        for semantics, engine, oracle in (("mp", leadsto_mp, oracle_mp),
                                          ("wf", leadsto_wf, oracle_wf)):
            verdict = engine(sys_, claim.a, claim.b)
            fix, trace = _kleene_leadsto(sys_, claim.b, semantics)
            assert verdict.fixpoint.mask == fix.mask
            assert _masks(verdict.trace.steps) == _masks(trace.steps)
            assert verdict.holds == oracle(sys_, claim.a, claim.b)[0]


def test_kernel_is_built_on_first_use():
    elab = load_file(os.path.join(DATA, "ring3.evt"))
    sys_ = elab.system
    assert sys_._classes is None  # the merged classes wait for the first engine call
    # each event's classes come straight from the value partitions, and its
    # per-state relation is decoded only when a per-state reader asks
    assert all(e._classes is not None and e._rel is None for e in sys_.events)
    sys_.strongest_invariant()  # the forward shift of the classes
    assert sys_._classes is not None
    assert all(e._rel is None for e in sys_.events)
    # the oracle and the per-state successors read the classes too
    starve = load_file(os.path.join(DATA, "starve3.evt"))
    for prop in starve.properties:
        oracle = oracle_mp if prop.assumption == "mp" else oracle_wf
        holds, cx = oracle(starve.system, prop.p, prop.q)
        assert not holds and cx.kind == "lasso"
        assert validate_counterexample(starve.system, cx, prop.q)
    assert oracle_reachable(sys_, sys_.init) == sys_.strongest_invariant()
    post = 0
    for s in sys_.init:
        for e in sys_.events:
            post |= e.successors(s)
    assert post == _post(sys_.classes(), sys_.init.mask)
    for e in sys_.events + starve.system.events:
        assert e._rel is None
    # the term algebra's reference decodes the per-state relation
    sys_.events[0].apply(sys_.space.universe())
    assert sys_.events[0]._rel is not None
