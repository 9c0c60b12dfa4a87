"""Minimal-progress engine: ensures, one-step transformer, leads-to, rules."""
import random

from hypothesis import given, settings, strategies as st

from fixleads.mp import (
    ensures_mp,
    leadsto_mp,
    leadsto_mp_si,
    mp_step,
    rule_mp_variant,
)
from fixleads.transformers import apply, grd, system_choice

from conftest import (
    assert_matches_restricted,
    random_set,
    random_system,
    restricted_leadsto,
    si_verdict,
    variant_from_table,
    xs,
)
from fixtures import mono3_system


def test_ensures_mp_examples(mono3, idle):
    assert ensures_mp(mono3, xs(mono3, 0), xs(mono3, 1)).holds
    assert not ensures_mp(idle, xs(idle, 0), xs(idle, 1)).holds
    assert ensures_mp(idle, xs(idle, 1), xs(idle, 0, 1)).holds  # p subset of q


def test_mp_step_examples(idle, mono3):
    assert mp_step(idle, xs(idle, 1)).mask == xs(idle, 1).mask
    assert mp_step(idle, idle.space.empty()).is_empty()
    assert sorted(mp_step(mono3, xs(mono3, 2))) == [1]


def test_leadsto_mp_mono3(mono3):
    v = leadsto_mp(mono3, xs(mono3, 0), xs(mono3, 2))
    assert v.holds and v.relation == "T_m"
    assert v.fixpoint.is_universe()
    masks = [s.mask for s in v.trace.steps]
    assert masks == [0, xs(mono3, 2).mask, xs(mono3, 1, 2).mask,
                     mono3.space.full_mask, mono3.space.full_mask]


def test_leadsto_mp_idle_fails(idle):
    v = leadsto_mp(idle, xs(idle, 0), xs(idle, 1))
    assert not v.holds
    assert v.fixpoint.mask == xs(idle, 1).mask


def test_leadsto_mp_trivial(cycle3):
    a = xs(cycle3, 1)
    assert leadsto_mp(cycle3, a, xs(cycle3, 1, 2)).holds


def test_leadsto_mp_si():
    shifted = mono3_system(init=(1,))
    a, b = xs(shifted, 0), xs(shifted, 2)
    v = si_verdict(shifted, a, b, "mp")
    assert v.holds  # x=0 is unreachable, claim is vacuous there
    assert sorted(v.details["si"]) == [1, 2]
    plain = mono3_system()
    assert (si_verdict(plain, xs(plain, 0), xs(plain, 2), "mp").holds
            == leadsto_mp(plain, xs(plain, 0), xs(plain, 2)).holds)


def test_rule_mp_variant_mono3(mono3):
    variant = variant_from_table(mono3.space, {0: 2, 1: 1, 2: 0}, "togo")
    v = rule_mp_variant(mono3, mono3.space.universe(), xs(mono3, 2), variant)
    assert v.holds and v.relation == "rule-mp-variant"


def test_rule_mp_variant_ladder3_fails(ladder3):
    variant = variant_from_table(ladder3.space, {0: 2, 1: 1, 2: 0}, "togo")
    v = rule_mp_variant(ladder3, ladder3.space.universe(), xs(ladder3, 2), variant)
    assert not v.holds
    assert v.details["failing_level"]["n"] == 1


def test_rule_mp_variant_trivial(mono3):
    variant = variant_from_table(mono3.space, {0: 0, 1: 0, 2: 0})
    assert rule_mp_variant(mono3, xs(mono3, 1), xs(mono3, 1, 2), variant).holds


# --- randomized laws -------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_mp_step_properties(seed):
    rng = random.Random(seed)
    sys_ = random_system(rng, max_states=8)
    r = random_set(rng, sys_.space)
    s = r | random_set(rng, sys_.space)
    # strictness and monotonicity of the one-step transformer
    assert mp_step(sys_, sys_.space.empty()).is_empty()
    assert mp_step(sys_, r).is_subset(mp_step(sys_, s))
    # the definitional ensures step from the one-step set always holds
    w = mp_step(sys_, r)
    assert (w - r).is_subset(sys_.grd_all & sys_.apply_all(r))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_ensures_implies_one_step(seed):
    rng = random.Random(seed)
    sys_ = random_system(rng, max_states=8)
    p, q = random_set(rng, sys_.space), random_set(rng, sys_.space)
    if ensures_mp(sys_, p, q).holds:
        assert (p - q).is_subset(mp_step(sys_, q))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_leadsto_mp_transitive_and_disjunctive(seed):
    rng = random.Random(seed)
    sys_ = random_system(rng, max_states=8)
    sp = sys_.space
    a, b, c = (random_set(rng, sp) for _ in range(3))
    if leadsto_mp(sys_, a, c).holds and leadsto_mp(sys_, c, b).holds:
        assert leadsto_mp(sys_, a, b).holds
    if leadsto_mp(sys_, a, b).holds and leadsto_mp(sys_, c, b).holds:
        assert leadsto_mp(sys_, a | c, b).holds


def _term_mp_step(sys_, x):
    """The mp step from the term algebra alone, not the engine's ``mp_step``:
    the states where some event is enabled and every event leads into ``x``."""
    t = system_choice(sys_)
    return grd(t, sys_.space.universe()) & apply(t, x)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_leadsto_mp_si_is_the_restricted_fixpoint(seed):
    rng = random.Random(seed)
    sys_ = random_system(rng, max_states=8)
    a, b = random_set(rng, sys_.space), random_set(rng, sys_.space)
    reference = restricted_leadsto(sys_, a, b, _term_mp_step)
    assert_matches_restricted(si_verdict(sys_, a, b, "mp"), reference)
    assert_matches_restricted(leadsto_mp_si(sys_, a, b), reference)
