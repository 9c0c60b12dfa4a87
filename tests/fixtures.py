"""Small canonical systems used throughout the test suite and docs.

All five live over a single variable ``x`` with two or three values, chosen
so each exercises one behavior: IDLE a stuttering event, MONO3 a monotone
counter, LADDER3 the counter plus stuttering, CYCLE3 a reversible counter,
TWODOWN two different ways down to zero.
"""
from __future__ import annotations

from typing import Dict, Iterable, Sequence

from fixleads.events import Event, EventSystem
from fixleads.states import StateSet, StateSpace, VarDecl


def _space(hi: int) -> StateSpace:
    return StateSpace([VarDecl("x", tuple(range(hi + 1)))])


def _set(space: StateSpace, xs: Iterable[int]) -> StateSet:
    return space.from_indices(space.index_of({"x": x}) for x in xs)


def _event(space: StateSpace, name: str, rel_by_x: Dict[int, Sequence[int]]) -> Event:
    guard = _set(space, rel_by_x)
    rel = {
        space.index_of({"x": x}): _set(space, succs).mask
        for x, succs in rel_by_x.items()
    }
    from conftest import event_from_rel  # conftest imports this module

    return event_from_rel(name, guard, rel)


def idle_system(init: Sequence[int] = (0,)) -> EventSystem:
    """x:0..1 with goal (x := 1 anywhere) and idle (skip anywhere)."""
    sp = _space(1)
    goal = _event(sp, "goal", {0: [1], 1: [1]})
    idle = _event(sp, "idle", {0: [0], 1: [1]})
    return EventSystem(sp, [goal, idle], _set(sp, init), name="idle")


def mono3_system(init: Sequence[int] = (0,)) -> EventSystem:
    """x:0..2 with inc (when x != 2, x := x + 1); deadlocks at 2."""
    sp = _space(2)
    inc = _event(sp, "inc", {0: [1], 1: [2]})
    return EventSystem(sp, [inc], _set(sp, init), name="mono3")


def ladder3_system(init: Sequence[int] = (0,)) -> EventSystem:
    """MONO3 plus an always-enabled idle event."""
    sp = _space(2)
    inc = _event(sp, "inc", {0: [1], 1: [2]})
    idle = _event(sp, "idle", {0: [0], 1: [1], 2: [2]})
    return EventSystem(sp, [inc, idle], _set(sp, init), name="ladder3")


def cycle3_system(init: Sequence[int] = (0,)) -> EventSystem:
    """x:0..2 with inc (when x != 2) and dec (when x != 0)."""
    sp = _space(2)
    inc = _event(sp, "inc", {0: [1], 1: [2]})
    dec = _event(sp, "dec", {1: [0], 2: [1]})
    return EventSystem(sp, [inc, dec], _set(sp, init), name="cycle3")


def twodown_system(init: Sequence[int] = (2,)) -> EventSystem:
    """x:0..2 with dec1 (when x > 0, x := x - 1) and jump (when x = 2, x := 0)."""
    sp = _space(2)
    dec1 = _event(sp, "dec1", {1: [0], 2: [1]})
    jump = _event(sp, "jump", {2: [0]})
    return EventSystem(sp, [dec1, jump], _set(sp, init), name="twodown")


def x_set(sys: EventSystem, xs: Iterable[int]) -> StateSet:
    """Convenience: the set {x in xs} over a fixture's space."""
    return _set(sys.space, xs)
