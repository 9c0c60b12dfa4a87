"""The exhaustive small-scope enumeration of ``smallscope.py``: every system
over at most 2 states, run whole, and a fixed slice of the 3-state,
2-event set, whose whole run is ``python tests/smallscope.py``."""
import itertools

from smallscope import SPACES, THREE_STATES, build, check_system, systems


def test_every_small_system_agrees_with_every_reference():
    counts = [0] * len(SPACES)
    compared = 0
    for space, family in systems():
        counts[SPACES.index(space)] += 1
        compared += check_system(build(space, family))
    print(f"small scope: {counts} systems per space, {compared} comparisons")
    # one state has 2 relations, so 2 + 3 + 4 families of 1-3 events; two
    # states have 16 and 968 families, 64 of them fixed by the swap of the
    # states, so (968 + 64) / 2 = 516 up to renaming (Burnside's lemma)
    assert counts == [9, 516, 9]
    # each family, each b, each state of the universe, under mp and wf
    assert compared == 9 * 2 * 1 * 2 + 516 * 4 * 2 * 2 + 9 * 2 * 1 * 2


def test_every_200th_three_state_system_agrees_with_every_reference():
    sliced = list(itertools.islice(systems(THREE_STATES, (2,)), 0, None, 200))
    assert len(sliced) == 112  # of the 22 284 that the whole run counts
    for space, family in sliced:
        assert check_system(build(space, family)) == 8 * 3 * 2
