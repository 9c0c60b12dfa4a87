"""Event systems: named guarded successor relations over one state space.

An event is enabled on its guard and maps each guarded state to a non-empty
set of successors; outside the guard it is a miracle (the induced transformer
holds there vacuously).  The whole system acts as the demonic choice of its
events (``transformers.system_choice`` is that choice as a term).
"""
from __future__ import annotations

from typing import Dict, List

from .states import StateSet, StateSpace, SpaceMismatch
from .transformers import lfp


class ModelError(Exception):
    """Malformed event or system (miraculous image, duplicate names, ...)."""


class Event:
    """A named event: guard set plus successor masks for each guarded state."""

    def __init__(self, name: str, guard: StateSet, rel: Dict[int, int]):
        space = guard.space
        if set(rel) != set(guard):
            raise ModelError(f"event {name!r}: relation domain must equal the guard")
        for s, image in rel.items():
            if image == 0:
                raise ModelError(f"event {name!r}: empty successor set at state {s}")
            if image & ~space.full_mask:
                raise ModelError(f"event {name!r}: successors outside the universe")
        self.name = name
        self.guard = guard
        self.space = space
        self.rel = dict(rel)
        self._not_guard_mask = guard.complement().mask
        self._items = sorted(rel.items())

    def apply(self, r: StateSet) -> StateSet:
        """Start states from which every successor lands in ``r`` (or no-guard)."""
        if r.space is not self.space:
            raise SpaceMismatch("postcondition over a different space")
        mask = self._not_guard_mask
        rm = r.mask
        for s, image in self._items:
            if image & ~rm == 0:
                mask |= 1 << s
        return StateSet(self.space, mask)

    def successors(self, s: int) -> int:
        """Successor mask of state ``s`` (0 outside the guard)."""
        return self.rel.get(s, 0)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "guard": self.guard.to_json(),
            "rel": {str(s): sorted(StateSet(self.space, image)) for s, image in self._items},
        }

    def __repr__(self):
        return f"Event({self.name!r})"


class EventSystem:
    """An ordered family of events plus an initial-state set."""

    def __init__(self, space: StateSpace, events: List[Event], init: StateSet, name: str = "system"):
        if not events:
            raise ModelError("a system needs at least one event")
        names = [e.name for e in events]
        if len(set(names)) != len(names):
            raise ModelError("duplicate event names")
        for e in events:
            if e.space is not space:
                raise ModelError(f"event {e.name!r} is over a different space")
        if init.space is not space:
            raise SpaceMismatch("init set over a different space")
        self.space = space
        self.events = tuple(events)
        self.init = init
        self.name = name
        self.grd_all = space.empty()
        for e in events:
            self.grd_all = self.grd_all | e.guard

    def event(self, name: str) -> Event:
        for e in self.events:
            if e.name == name:
                return e
        raise ModelError(f"unknown event {name!r}")

    def apply_all(self, r: StateSet) -> StateSet:
        """Demonic choice over every event (the system transformer)."""
        out = self.events[0].apply(r)
        for e in self.events[1:]:
            out = out & e.apply(r)
        return out

    def forward_image(self, r: StateSet) -> StateSet:
        """All one-step successors of states in ``r``."""
        mask = 0
        for e in self.events:
            em = r.mask & e.guard.mask
            m = em
            while m:
                lsb = m & -m
                mask |= e.rel[lsb.bit_length() - 1]
                m ^= lsb
        return StateSet(self.space, mask)

    def strongest_invariant(self) -> StateSet:
        """Least set containing init and closed under every event."""
        fix, _ = lfp(lambda x: self.init | self.forward_image(x), self.space)
        return fix

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "vars": [{"name": v.name, "domain": list(v.domain)} for v in self.space.vars],
            "events": [e.to_json() for e in self.events],
            "init": self.init.to_json(),
        }
