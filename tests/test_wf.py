"""Weak-fairness engine: fair loops, the fair step, leads-to, bridge rule."""
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from fixleads import wf
from fixleads.mp import leadsto_mp
from fixleads.verdicts import SelfCheckDefect
from fixleads.transformers import fair_loop_liberal, fair_loop_termination, wf_step
from fixleads.wf import (
    ensures_wf,
    fair_loop,
    leadsto_wf,
    leadsto_wf_si,
    rule_wf_to_mp,
)

from conftest import (
    assert_matches_restricted,
    random_set,
    random_system,
    restricted_leadsto,
    si_verdict,
    variant_from_table,
    xs,
)


def test_fair_loop_examples(idle, cycle3):
    goal = idle.event("goal")
    assert fair_loop(idle, xs(idle, 1), goal, xs(idle, 1)).is_universe()
    empty = cycle3.space.empty()
    assert fair_loop(cycle3, empty, cycle3.event("inc"), empty).is_empty()
    u = idle.space.universe()
    assert fair_loop(idle, u, goal, xs(idle, 0)).is_universe()  # q = u


def test_fair_loop_termination_examples(idle, cycle3):
    assert fair_loop_termination(idle, xs(idle, 1), idle.event("goal")).is_universe()
    assert fair_loop_termination(idle, idle.space.universe(), idle.event("idle")).is_universe()
    empty = cycle3.space.empty()
    assert fair_loop_termination(cycle3, empty, cycle3.event("inc")).is_universe()


def test_fair_loop_liberal_examples(idle, cycle3):
    for sys_ in (idle, cycle3):
        full = sys_.space.full_mask
        for g in sys_.events:
            for qm in range(full + 1):
                for rm in range(full):  # r strictly below u
                    q = sys_.space.from_indices(i for i in range(sys_.space.size) if qm >> i & 1)
                    r = sys_.space.from_indices(i for i in range(sys_.space.size) if rm >> i & 1)
                    assert fair_loop_liberal(sys_, q, g, r).mask == fair_loop(sys_, q, g, r).mask
    u = idle.space.universe()
    assert fair_loop_liberal(idle, xs(idle, 0), idle.event("idle"), u).is_universe()


def test_wf_step_examples(idle):
    assert wf_step(idle, xs(idle, 1)).is_universe()
    assert wf_step(idle, idle.space.empty()).is_empty()
    assert wf_step(idle, idle.space.universe()).is_universe()


def test_leadsto_wf_idle_holds(idle):
    v = leadsto_wf(idle, xs(idle, 0), xs(idle, 1))
    assert v.holds and v.relation == "T_w"
    assert v.fixpoint.is_universe()
    masks = [s.mask for s in v.trace.steps]
    assert masks[:2] == [0, xs(idle, 1).mask]
    assert masks[-1] == idle.space.full_mask


def test_leadsto_wf_cycle3_fails(cycle3):
    v = leadsto_wf(cycle3, xs(cycle3, 0), xs(cycle3, 2))
    assert not v.holds
    assert 0 not in v.fixpoint


def test_leadsto_wf_trivial(cycle3):
    assert leadsto_wf(cycle3, xs(cycle3, 1), xs(cycle3, 1, 2)).holds


def test_leadsto_wf_si(cycle3):
    # cycle3 reaches everything, so the restricted check agrees
    a, b = xs(cycle3, 0), xs(cycle3, 2)
    v = si_verdict(cycle3, a, b, "wf")
    assert v.holds == leadsto_wf(cycle3, a, b).holds
    assert v.details["si"].is_universe()


def test_ensures_wf_examples(idle):
    p, q = xs(idle, 0), xs(idle, 1)
    good = ensures_wf(idle, idle.event("goal"), p, q)
    assert good.holds and good.details["helpful"] == "goal"
    assert not ensures_wf(idle, idle.event("idle"), p, q).holds
    assert ensures_wf(idle, idle.event("idle"), q, q).holds  # p subset of q


def test_an_iterate_outside_the_one_step_bound_is_a_defect(mono3):
    """The fixpoint, every state, leaves the target ``x = 2``: with a
    one-step image made empty, it escapes the bound ``b ∪ mp_step(fix)``."""
    a, b = mono3.space.universe(), xs(mono3, 2)
    assert leadsto_wf(mono3, a, b).fixpoint.is_universe()
    with mock.patch.object(wf, "mp_step", lambda sys_, x: sys_.space.empty()):
        with pytest.raises(SelfCheckDefect, match="one-step bound"):
            leadsto_wf(mono3, a, b)


def test_rule_wf_to_mp_twodown(twodown):
    variant = variant_from_table(twodown.space, {0: 0, 1: 1, 2: 2}, "down")
    v = rule_wf_to_mp(twodown, twodown.space.universe(), xs(twodown, 0), variant)
    assert v.holds and v.relation == "rule-wf-to-mp"
    assert leadsto_mp(twodown, twodown.space.universe(), xs(twodown, 0)).holds


def test_rule_wf_to_mp_ladder3_fails(ladder3):
    variant = variant_from_table(ladder3.space, {0: 2, 1: 1, 2: 0}, "togo")
    v = rule_wf_to_mp(ladder3, xs(ladder3, 0), xs(ladder3, 2), variant)
    assert not v.holds
    assert "failing_level" in v.details


# --- randomized laws -------------------------------------------------------


def _sys_q_g_r(seed, with_universe_r=True):
    rng = random.Random(seed)
    sys_ = random_system(rng, max_states=6)
    q = random_set(rng, sys_.space)
    g = sys_.events[rng.randrange(len(sys_.events))]
    r = random_set(rng, sys_.space)
    if not with_universe_r and r.is_universe():
        r = r - sys_.space.from_indices([next(iter(r))])
    return sys_, q, g, r


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_fair_loop_guard_law(seed):
    """With an empty reach set the loop body is vacuous: the loop equals q."""
    sys_, q, g, _ = _sys_q_g_r(seed)
    assert fair_loop(sys_, q, g, sys_.space.empty()).mask == q.mask


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_fair_loop_liberal_below_termination(seed):
    sys_, q, g, r = _sys_q_g_r(seed, with_universe_r=False)
    assert fair_loop_liberal(sys_, q, g, r).is_subset(fair_loop_termination(sys_, q, g))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_fair_loop_monotone_in_r_and_wf_step_laws(seed):
    rng = random.Random(seed)
    sys_ = random_system(rng, max_states=6)
    sp = sys_.space
    q = random_set(rng, sp)
    g = sys_.events[rng.randrange(len(sys_.events))]
    r1 = random_set(rng, sp)
    r2 = r1 | random_set(rng, sp)
    assert fair_loop(sys_, q, g, r1).is_subset(fair_loop(sys_, q, g, r2))
    assert wf_step(sys_, sp.empty()).is_empty()
    assert wf_step(sys_, r1).is_subset(wf_step(sys_, r2))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_ensures_wf_implies_fair_loop_membership(seed):
    rng = random.Random(seed)
    sys_ = random_system(rng, max_states=6)
    a, b = random_set(rng, sys_.space), random_set(rng, sys_.space)
    for g in sys_.events:
        if ensures_wf(sys_, g, a, b).holds:
            assert a.is_subset(fair_loop(sys_, b, g, b))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_fair_loop_step_is_an_ensures(seed):
    """Each per-event fair loop to r passes the one-step fair check."""
    rng = random.Random(seed)
    sys_ = random_system(rng, max_states=6)
    r = random_set(rng, sys_.space)
    for g in sys_.events:
        y = fair_loop(sys_, r, g, r)
        assert ensures_wf(sys_, g, y, r).holds


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_wf_dominates_mp(seed):
    rng = random.Random(seed)
    sys_ = random_system(rng, max_states=6)
    a, b = random_set(rng, sys_.space), random_set(rng, sys_.space)
    mp_v = leadsto_mp(sys_, a, b)
    wf_v = leadsto_wf(sys_, a, b)  # also exercises the internal bound check
    assert mp_v.fixpoint.is_subset(wf_v.fixpoint)
    if mp_v.holds:
        assert wf_v.holds


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_leadsto_wf_si_is_the_restricted_fixpoint(seed):
    rng = random.Random(seed)
    sys_ = random_system(rng, max_states=6)
    a, b = random_set(rng, sys_.space), random_set(rng, sys_.space)
    reference = restricted_leadsto(sys_, a, b, wf_step)
    # also runs the one-step bound self-check on the restricted claim
    assert_matches_restricted(si_verdict(sys_, a, b, "wf"), reference)
    assert_matches_restricted(leadsto_wf_si(sys_, a, b), reference)
