"""Event systems: named guarded successor relations over one state space.

An event is enabled on its guard and maps each guarded state to a non-empty
set of successors; outside the guard it is a miracle (the induced transformer
holds there vacuously).  The whole system acts as the demonic choice of its
events (``transformers.system_choice`` is that choice as a term).

The system also carries the graph kernel that every engine fixpoint runs on:
predecessor masks of the union relation, built on first use, under
``apply_all`` (``AX``), ``attract`` (``lfp x. a ∪ (b ∩ AX x)``, by successor
counters) and ``weak_attract`` (its greatest fixpoint, by backward
reachability).  ``Event.apply`` stays the definitional per-event loop that
the term algebra uses, so the kernel has an independent reference.
"""
from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .states import StateSet, StateSpace, SpaceMismatch


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
        self._graph: Optional[Tuple[List[int], List[int]]] = None  # see _kernel

    def event(self, name: str) -> Event:
        for e in self.events:
            if e.name == name:
                return e
        raise ModelError(f"unknown event {name!r}")

    def _kernel(self) -> Tuple[List[int], List[int]]:
        """``pre[t]``, the mask of the states with an edge to ``t`` under any
        event, and ``degree[s]``, the number of distinct successors of ``s``.
        Built on first use: loading a model and ``si`` never need them."""
        if self._graph is None:
            succ: Dict[int, int] = {}
            for e in self.events:
                for s, image in e._items:
                    succ[s] = succ.get(s, 0) | image
            pre = [0] * self.space.size
            degree = [0] * self.space.size
            for s, image in succ.items():
                degree[s] = image.bit_count()
                bit = 1 << s
                while image:
                    lsb = image & -image
                    pre[lsb.bit_length() - 1] |= bit
                    image ^= lsb
            self._graph = pre, degree
        return self._graph

    def _ex(self, mask: int) -> int:
        """``EX``: the states with some successor in ``mask``."""
        pre = self._kernel()[0]
        out = 0
        while mask:
            lsb = mask & -mask
            out |= pre[lsb.bit_length() - 1]
            mask ^= lsb
        return out

    def apply_all(self, r: StateSet) -> StateSet:
        """Demonic choice over every event (the system transformer): ``AX r``,
        the complement of ``EX ¬r``."""
        if r.space is not self.space:
            raise SpaceMismatch("postcondition over a different space")
        full = self.space.full_mask
        return StateSet(self.space, full ^ self._ex(full ^ r.mask))

    def attract(self, a: StateSet, b: StateSet) -> List[StateSet]:
        """The Kleene iterates of ``lfp x. a ∪ (b ∩ AX x)``: ``[∅, x1, ..., xK,
        xK]``, or ``[∅, ∅]`` when ``x1`` is empty.

        Linear time (Liu & Smolka, ICALP 1998): each state of ``b`` counts its
        successors outside ``x`` and joins the level after its count reaches
        zero; states without successors join in ``x1``."""
        pre, degree = self._kernel()
        left = list(degree)
        x = a.mask | (b.mask & ~self.grd_all.mask)
        cand = b.mask & ~x
        masks = [0]
        frontier = x
        while frontier:
            masks.append(x)
            joined = 0
            while frontier:
                lsb = frontier & -frontier
                frontier ^= lsb
                preds = pre[lsb.bit_length() - 1] & cand
                while preds:
                    bit = preds & -preds
                    preds ^= bit
                    s = bit.bit_length() - 1
                    left[s] -= 1
                    if not left[s]:
                        joined |= bit
            cand &= ~joined
            x |= joined
            frontier = joined
        masks.append(x)
        return [StateSet(self.space, m) for m in masks]

    def weak_attract(self, a: StateSet, b: StateSet) -> StateSet:
        """``gfp x. a ∪ (b ∩ AX x)``: the complement of the states of ``¬a``
        that reach ``¬a ∩ ¬b`` inside ``¬a``."""
        if not b.mask & ~a.mask:
            return a
        inside = self.space.full_mask ^ a.mask
        bad = frontier = inside & ~b.mask
        while frontier:
            frontier = self._ex(frontier) & inside & ~bad
            bad |= frontier
        return StateSet(self.space, self.space.full_mask ^ bad)

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
        """Least set containing init and closed under every event: a forward
        search that takes the successors of each reached state once."""
        reach = frontier = self.init.mask
        while frontier:
            frontier = self.forward_image(StateSet(self.space, frontier)).mask & ~reach
            reach |= frontier
        return StateSet(self.space, reach)
