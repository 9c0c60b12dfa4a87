"""Event systems: named guarded successor relations over one state space.

An event is enabled on its guard and maps each guarded state to a non-empty
set of successors; outside the guard it is a miracle (the induced transformer
holds there vacuously).  The whole system acts as the demonic choice of its
events (``transformers.system_choice`` is that choice as a term).

The engines reach the relation through one format: offset classes
``((d, src), ...)``, where ``src`` is the mask of the states with an edge to
the state ``d`` indices above them (the explicit-state form of a partitioned
transition relation, Burch, Clarke & Long 1991).  ``EX`` is one shift and AND
per class (``_ex``) and the successor image its forward dual (``_post``);
every fixpoint below loops over them.  An event is built from its classes
alone, and everything, the trace oracle and ``Event.successors`` included,
reads them; the per-state ``rel`` is decoded from them on first use, only
for the term algebra's reference loop ``Event.apply``.
Every iterate chain (:class:`IterateTrace`) is built here, by ``attract``
and by the Kleene loops :func:`lfp` and :func:`gfp`.
"""
from __future__ import annotations

from collections.abc import Callable

from .records import Frozen, setfield
from .states import StateSet, StateSpace, SpaceMismatch, bit_positions

Classes = tuple[tuple[int, int], ...]


class ModelError(Exception):
    """Malformed event or system (miraculous image, duplicate names, ...)."""


class FixpointError(Exception):
    """Iteration failed to stabilize within the guaranteed bound."""


class IterateTrace(Frozen):
    """The full chain of iterates of a stabilized fixpoint computation."""

    __slots__ = ("steps", "kind")

    def __init__(self, steps: tuple[StateSet, ...], kind: str):
        setfield(self, "steps", steps)
        setfield(self, "kind", kind)  # 'least' | 'greatest'

    @property
    def value(self) -> StateSet:
        return self.steps[-1]

    def to_json(self) -> dict:
        """Every iterate, as a :class:`StateSet`; a report's set table
        (``states.set_table``) writes each one once, on the next smaller one."""
        return {"kind": self.kind, "steps": list(self.steps)}


def lfp(f: Callable[[StateSet], StateSet], space) -> tuple[StateSet, IterateTrace]:
    """Least fixpoint of a monotone function by Kleene iteration from ∅."""
    return _iterate(f, space.empty(), "least", space.size)


def gfp(f: Callable[[StateSet], StateSet], space) -> tuple[StateSet, IterateTrace]:
    """Greatest fixpoint by Kleene iteration from the universe."""
    return _iterate(f, space.universe(), "greatest", space.size)


def _iterate(f, start: StateSet, kind: str, size: int):
    steps: list[StateSet] = [start]
    current = start
    for _ in range(size + 1):
        nxt = f(current)
        steps.append(nxt)
        if nxt.mask == current.mask:
            return nxt, IterateTrace(tuple(steps), kind)
        # a monotone f only climbs from ∅ and only descends from the universe
        if current.mask & ~nxt.mask if kind == "least" else nxt.mask & ~current.mask:
            raise FixpointError(f"iterate {len(steps) - 1} breaks the {kind} chain; f is not monotone")
        current = nxt
    raise FixpointError(f"no stabilization within {size + 1} steps; f is not monotone")


def _ex(classes: Classes, mask: int) -> int:
    """``EX``: the states with some successor in ``mask``."""
    out = 0
    for d, src in classes:
        out |= src & (mask >> d if d >= 0 else mask << -d)
    return out


def _post(classes: Classes, mask: int) -> int:
    """The forward dual of ``_ex``: the successors of the states in ``mask``."""
    out = 0
    for d, src in classes:
        out |= (mask & src) << d if d >= 0 else (mask & src) >> -d
    return out


class Event:
    """A named event: a guard set plus the offset classes of its edges."""

    def __init__(self, name: str, guard: StateSet, classes: Classes):
        """The event whose edges are the offset classes ``classes``, sorted by
        ``d``, with no empty ``src``: every guarded state, and only those, is
        a source, and every edge lands on a state of the universe."""
        space = guard.space
        full, sources = space.full_mask, 0
        for d, src in classes:
            sources |= src
            targets = src << d if d >= 0 else src >> -d
            if targets & ~full or targets.bit_count() != src.bit_count():
                raise ModelError(f"event {name!r}: successors outside the universe")
        if sources != guard.mask:
            raise ModelError(f"event {name!r}: relation domain must equal the guard")
        self.name = name
        self.guard = guard
        self.space = space
        self._classes = tuple(classes)
        self._rel: dict[int, int] | None = None  # see rel

    @property
    def rel(self) -> dict[int, int]:
        """``{s: successor mask}`` for each guarded state ``s``, in index order:
        the term algebra's per-state reference (``apply``), decoded from the
        classes on first use.  No engine, oracle or command reads it."""
        if self._rel is None:
            rel = dict.fromkeys(bit_positions(self.guard.mask), 0)
            for d, src in self._classes:
                for s in bit_positions(src):
                    rel[s] |= 1 << (s + d)
            self._rel = rel
        return self._rel

    def classes(self) -> Classes:
        """The offset classes of this event's edges."""
        return self._classes

    def apply(self, r: StateSet) -> StateSet:
        """Start states from which every successor lands in ``r`` (or no-guard):
        the per-state reference loop over ``rel``."""
        if r.space is not self.space:
            raise SpaceMismatch("postcondition over a different space")
        mask = self.guard.complement().mask
        rm = r.mask
        for s, image in self.rel.items():
            if image & ~rm == 0:
                mask |= 1 << s
        return StateSet(self.space, mask)

    def guarded_apply(self, r: StateSet) -> StateSet:
        """``grd g ∩ g.apply(r)``: the guarded states whose every successor is in ``r``."""
        if r.space is not self.space:
            raise SpaceMismatch("postcondition over a different space")
        full = self.space.full_mask
        return StateSet(self.space, self.guard.mask & ~_ex(self.classes(), full ^ r.mask))

    def successors(self, s: int) -> int:
        """Successor mask of state ``s`` (0 outside the guard), read off the classes."""
        out = 0
        for d, src in self.classes():
            if src >> s & 1:
                out |= 1 << (s + d)
        return out

    def __repr__(self):
        return f"Event({self.name!r})"


class EventSystem:
    """An ordered family of events, indexed by name in ``by_name``, plus an initial-state set."""

    def __init__(self, space: StateSpace, events: list[Event], init: StateSet, name: str = "system"):
        if not events:
            raise ModelError("a system needs at least one event")
        self.by_name = {e.name: e for e in events}
        if len(self.by_name) != len(events):
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
        self._classes: Classes | None = None  # see classes

    def event(self, name: str) -> Event:
        if (e := self.by_name.get(name)) is None:
            raise ModelError(f"unknown event {name!r}")
        return e

    def classes(self) -> Classes:
        """The events' offset classes merged by offset, built on first use:
        loading a model builds none."""
        if self._classes is None:
            merged: dict[int, int] = {}
            for e in self.events:
                for d, src in e.classes():
                    merged[d] = merged.get(d, 0) | src
            self._classes = tuple(sorted(merged.items()))
        return self._classes

    def _ax(self, mask: int) -> int:
        """``AX``: the complement of ``EX ¬mask``."""
        full = self.space.full_mask
        return full ^ _ex(self.classes(), full ^ mask)

    def apply_all(self, r: StateSet) -> StateSet:
        """Demonic choice over every event (the system transformer): ``AX r``."""
        if r.space is not self.space:
            raise SpaceMismatch("postcondition over a different space")
        return StateSet(self.space, self._ax(r.mask))

    def attract(self, a: StateSet, b: StateSet) -> IterateTrace:
        """The least chain of ``lfp x. a ∪ (b ∩ AX x)``: steps ``(∅, x1, ...,
        xK, xK)``, or ``(∅, ∅)`` when ``x1`` is empty.  States without
        successors are in ``AX ∅``, so they join in ``x1``."""
        masks = [0]
        while True:
            masks.append(a.mask | (b.mask & self._ax(masks[-1])))
            if masks[-1] == masks[-2]:
                return IterateTrace(tuple([StateSet(self.space, m) for m in masks]), "least")

    def weak_attract(self, a: StateSet, b: StateSet) -> StateSet:
        """``gfp x. a ∪ (b ∩ AX x)``, by Kleene iteration down from the universe."""
        x, prev = self.space.full_mask, None
        while x != prev:
            x, prev = a.mask | (b.mask & self._ax(x)), x
        return StateSet(self.space, x)

    def strongest_invariant(self) -> StateSet:
        """Least set containing init and closed under every event: a forward
        search that takes the successors of each reached state once."""
        classes = self.classes()
        reach = frontier = self.init.mask
        while frontier:
            frontier = _post(classes, frontier) & ~reach
            reach |= frontier
        return StateSet(self.space, reach)
