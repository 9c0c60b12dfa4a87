"""Event relations, the system choice transformer, and the strongest invariant."""
import random

import pytest
from hypothesis import given, settings, strategies as st

from fixleads.events import Event, EventSystem, ModelError, _post
from fixleads.oracle import oracle_reachable
from fixleads.states import StateSet, bit_positions
from fixleads.transformers import apply, grd, system_choice

from conftest import make_space, random_system, xs
from fixtures import idle_system, mono3_system


def test_event_apply_mono3(mono3):
    inc = mono3.event("inc")
    assert sorted(inc.apply(xs(mono3, 1))) == [0, 2]
    assert inc.apply(mono3.space.universe()).is_universe()
    assert sorted(inc.apply(mono3.space.empty())) == [2]
    assert sorted(inc.guard) == [0, 1]


def test_system_choice_idle(idle):
    r = xs(idle, 1)
    assert idle.apply_all(r).mask == r.mask
    assert idle.grd_all.is_universe()
    assert idle.apply_all(idle.space.empty()).is_empty()


def test_system_choice_transformer_matches_apply_all(idle, mono3, cycle3):
    for sys_ in (idle, mono3, cycle3):
        t = system_choice(sys_)
        for mask in range(sys_.space.full_mask + 1):
            r = StateSet(sys_.space, mask)
            assert apply(t, r).mask == sys_.apply_all(r).mask
        assert grd(t, sys_.space.universe()).mask == sys_.grd_all.mask


def test_forward_image(idle, mono3):
    assert list(bit_positions(_post(idle.classes(), xs(idle, 0).mask))) == [0, 1]
    assert _post(idle.classes(), 0) == 0
    assert _post(mono3.classes(), xs(mono3, 2).mask) == 0


def test_strongest_invariant(mono3):
    assert mono3.strongest_invariant().is_universe()
    shifted = mono3_system(init=(1,))
    assert sorted(shifted.strongest_invariant()) == [1, 2]
    empty = mono3_system(init=())
    assert empty.strongest_invariant().is_empty()


def test_si_from_one(idle):
    one = idle_system(init=(1,))
    assert sorted(one.strongest_invariant()) == [1]


def test_event_validation():
    """The offset classes ``((d, src), ...)`` of an event are checked: each
    guarded state, and no other, is a source, and each edge lands in the
    universe."""
    sp = make_space(3)
    guard = sp.from_indices([0, 1])
    e = Event("e", guard, ((-1, 0b010), (1, 0b011)))
    assert e.rel == {0: 0b010, 1: 0b101}
    with pytest.raises(ModelError):
        Event("e", guard, ((1, 0b001),))  # the guarded state 1 has no edge
    with pytest.raises(ModelError):
        Event("e", guard, ((0, 0b111),))  # the source 2 is outside the guard
    with pytest.raises(ModelError):
        Event("e", guard, ((2, 0b011),))  # 1 + 2 is above the raw size 3
    holed = make_space(3, holes=[2])
    with pytest.raises(ModelError):
        Event("e", holed.from_indices([0]), ((2, 0b001),))  # 0 + 2 is the hole
    with pytest.raises(ModelError):
        Event("e", guard, ((-1, 0b011),))  # 0 - 1 is below index 0


def test_system_validation():
    sp = make_space(2)
    e = Event("e", sp.universe(), ((0, 0b11),))
    with pytest.raises(ModelError):
        EventSystem(sp, [], sp.universe())
    with pytest.raises(ModelError):
        EventSystem(sp, [e, e], sp.universe())


def test_event_conjunctivity_fixtures(idle, mono3, cycle3, twodown, ladder3):
    rng = random.Random(7)
    for sys_ in (idle, mono3, cycle3, twodown, ladder3):
        full = sys_.space.full_mask
        for e in sys_.events:
            for _ in range(20):
                r = StateSet(sys_.space, rng.getrandbits(4) & full)
                s = StateSet(sys_.space, rng.getrandbits(4) & full)
                assert e.apply(r & s).mask == (e.apply(r) & e.apply(s)).mask


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_si_closed_and_matches_reachability(seed):
    sys_ = random_system(random.Random(seed), max_states=8)
    si = sys_.strongest_invariant()
    assert si.is_subset(sys_.apply_all(si))
    # closure under steps: no event leaves si
    assert _post(sys_.classes(), si.mask) & ~si.mask == 0
    assert sys_.init.is_subset(si)
    assert si.mask == oracle_reachable(sys_, sys_.init).mask

