"""Variant functions, level sets, the variant rule's antecedents and the
variant-decrease theorem checker."""
import glob
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from fixleads import StateSet, load_file
from fixleads.cli import resolve
from fixleads.mp import mp_step
from fixleads.transformers import check_variant_theorem
from fixleads.variants import VariantError, VariantFn, variant_antecedents

from conftest import (
    level_set,
    make_space,
    random_set,
    random_system,
    variant_from_table,
    xs,
)

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def _togo(sys):
    return variant_from_table(sys.space, {0: 2, 1: 1, 2: 0}, "togo")


def test_level_sets_mono3(mono3):
    v = _togo(mono3)
    assert sorted(level_set(v, 0)) == [2]
    assert sorted(level_set(v, 1)) == [1]
    assert sorted(level_set(v, 2)) == [0]
    assert level_set(v, 5).is_empty()


def test_variant_validation():
    sp = make_space(3)
    assert level_set(VariantFn.from_levels(sp, {0: 0b001, 4: 0b110}), 4).mask == 0b110
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
    assert sorted(level_set(v, 3)) == [0] and sorted(level_set(v, 0)) == [3]
    assert level_set(v, 2).is_empty()  # the hole's level holds no state
    assert sorted(level_set(v, 1)) == [2]
    with pytest.raises(VariantError):  # the level 2 is the hole
        VariantFn.from_levels(sp, {3: 0b0001, 2: 0b0010, 1: 0b0100, 0: 0b1000})


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_level_set_identities(seed):
    rng = random.Random(seed)
    sp = make_space(rng.randint(1, 8))
    table = {s: rng.randint(0, 4) for s in range(sp.size)}
    v = variant_from_table(sp, table)
    union_levels = sp.empty()
    for n in range(6):
        level = level_set(v, n)
        assert (level & union_levels).is_empty()  # the levels are disjoint
        assert sorted(level) == [s for s, val in table.items() if val == n]
        union_levels = union_levels | level
    assert union_levels.is_universe()  # totality


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
    for n in range(sp.size + 1):
        covered = covered | level_set(v_fn, n)
        iterate = trace.steps[min(n + 1, len(trace.steps) - 1)]
        assert (covered & p).is_subset(iterate)


def per_level_antecedents(p, variant, step, image):
    """Reference for ``variant_antecedents``: the set below each level built
    again from every lower level, as ``VariantFn.below_set`` once did."""
    def below_set(n):
        mask = 0
        for val, m in variant._levels.items():
            if val < n:
                mask |= m
        return StateSet(variant.space, mask)

    details = {}
    for n in sorted(variant._levels):
        lhs = p & level_set(variant, n)
        rhs = step(below_set(n))
        if not lhs.is_subset(rhs):
            details["failing_level"] = {"n": n, "states": lhs - rhs}
            break
    if not p.is_subset(image):
        details["not_invariant"] = p - image
    return details


def _rule_arguments(sys_, a, b, variant):
    """The arguments of ``variant_antecedents`` in ``rule_mp_variant`` and in
    ``rule_wf_to_mp``."""
    yield a - b, variant, sys_.apply_all, mp_step(sys_, a)
    yield b.complement(), variant, sys_.apply_all, sys_.space.universe()


def _assert_same_antecedents(sys_, a, b, variant):
    for args in _rule_arguments(sys_, a, b, variant):
        assert variant_antecedents(*args) == per_level_antecedents(*args)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_variant_antecedents_match_the_per_level_loop_on_random_systems(seed):
    rng = random.Random(seed)
    sys_ = random_system(rng, max_states=9)
    sp = sys_.space
    table = {s: rng.randint(0, 2 * sp.size) for s in sp.universe()}
    variant = variant_from_table(sp, table)
    _assert_same_antecedents(sys_, random_set(rng, sp), random_set(rng, sp), variant)


def test_variant_antecedents_match_the_per_level_loop_on_every_data_variant():
    models = 0
    for path in sorted(glob.glob(os.path.join(DATA, "*.evt"))):
        elab = load_file(path)
        if not elab.variants:
            continue
        models += 1
        for prop in elab.properties:
            if prop.kind != "leadsto":
                continue
            for assume in ("mp", "wf"):
                claim = resolve(elab, prop, assume)
                for variant in elab.variants.values():
                    _assert_same_antecedents(elab.system, claim.a, claim.b, variant)
    assert models == 3
