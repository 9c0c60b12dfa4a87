"""Variant functions, level sets, and the variant-decrease theorem checker."""
import random

import pytest
from hypothesis import given, settings, strategies as st

from fixleads.mp import mp_step
from fixleads.variants import VariantError, VariantFn, check_variant_theorem

from conftest import make_space, random_set, random_system, variant_from_table, xs


def _togo(sys):
    return variant_from_table(sys.space, {0: 2, 1: 1, 2: 0}, "togo")


def test_level_sets_mono3(mono3):
    v = _togo(mono3)
    assert sorted(v.level_set(0)) == [2]
    assert sorted(v.level_set(1)) == [1]
    assert sorted(v.level_set(2)) == [0]
    assert v.level_set(5).is_empty()
    assert v.below_set(0).is_empty()
    assert sorted(v.below_set(2)) == [1, 2]
    assert v.max_value == 2


def test_variant_validation():
    sp = make_space(3)
    assert VariantFn.from_levels(sp, {0: 0b001, 4: 0b110}).max_value == 4
    with pytest.raises(VariantError):
        VariantFn.from_levels(sp, {0: 0b001, 1: 0b010})  # partial
    with pytest.raises(VariantError):
        VariantFn.from_levels(sp, {0: 0b011, 1: 0b110})  # overlapping
    with pytest.raises(VariantError):
        VariantFn.from_levels(sp, {0: 0b101, -1: 0b010})  # negative
    with pytest.raises(VariantError):
        VariantFn.from_levels(sp, {0: 0b111, 1: 0})  # an empty level


def test_table_levels_on_a_space_with_holes():
    sp = make_space(4, holes=[1])
    v = variant_from_table(sp, {i: 3 - sp.state_of(i)["x"] for i in sp.universe()})
    assert sorted(v.level_set(3)) == [0] and sorted(v.level_set(0)) == [3]
    assert v.level_set(2).is_empty()  # the hole's level holds no state
    assert sorted(v.below_set(2)) == [2, 3]
    with pytest.raises(VariantError):  # the level 2 is the hole
        VariantFn.from_levels(sp, {3: 0b0001, 2: 0b0010, 1: 0b0100, 0: 0b1000})


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_level_set_identities(seed):
    rng = random.Random(seed)
    sp = make_space(rng.randint(1, 8))
    v = variant_from_table(sp, {s: rng.randint(0, 4) for s in range(sp.size)})
    union_levels = sp.empty()
    for n in range(v.max_value + 2):
        below = sp.empty()
        for i in range(n):
            below = below | v.level_set(i)
        assert v.below_set(n).mask == below.mask  # v'(n) = union of lower levels
        union_levels = union_levels | v.level_set(n)
    assert union_levels.is_universe()  # totality
    union_below = sp.empty()
    for i in range(v.max_value + 1):
        union_below = union_below | v.below_set(i + 1)
    assert union_below.mask == union_levels.mask


def test_variant_theorem_mono3(mono3):
    f = lambda x: xs(mono3, 2) | mp_step(mono3, x)
    v = check_variant_theorem(f, mono3.space.universe(), _togo(mono3))
    assert v.holds
    assert mono3.space.universe().is_subset(v.fixpoint)


def test_variant_theorem_empty_p(mono3):
    f = lambda x: xs(mono3, 2) | mp_step(mono3, x)
    assert check_variant_theorem(f, mono3.space.empty(), _togo(mono3)).holds


def test_variant_theorem_ladder3_fails(ladder3):
    f = lambda x: xs(ladder3, 2) | mp_step(ladder3, x)
    v = check_variant_theorem(f, ladder3.space.universe(), _togo(ladder3))
    assert not v.holds
    assert v.details["failing_level"]["n"] == 1


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_variant_theorem_layer_bound(seed):
    """Under the antecedents, the first n+1 levels of p sit inside the
    (n+1)-th iterate of f."""
    rng = random.Random(seed)
    sys_ = random_system(rng, max_states=7)
    sp = sys_.space
    b = random_set(rng, sp)
    f = lambda x: b | mp_step(sys_, x)
    v_fn = variant_from_table(sp, {s: rng.randint(0, sp.size) for s in sp.universe()})
    p = random_set(rng, sp)
    verdict = check_variant_theorem(f, p, v_fn)
    if not verdict.holds:
        return
    trace = verdict.trace
    covered = sp.empty()
    for n in range(v_fn.max_value + 1):
        covered = covered | v_fn.level_set(n)
        iterate = trace.steps[min(n + 1, len(trace.steps) - 1)]
        assert (covered & p).is_subset(iterate)
