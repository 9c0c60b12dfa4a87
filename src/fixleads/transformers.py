"""The closed term algebra of set transformers.

Each term has two interpretations over a postcondition set: the demonic one
(``apply``: start states guaranteed to terminate inside the postcondition)
and the liberal one (``liberal``: terminate inside it or loop forever).
``pre`` is the termination set, ``grd`` the enabledness set.  The fair-choice
(dovetail) term only has direct liberal/termination definitions; its demonic
meaning comes from the pairing condition ``apply = liberal ∩ pre``.
"""
from __future__ import annotations

from collections.abc import Callable

from .records import Frozen, setfield
from .states import StateSet, SpaceMismatch


class FixpointError(Exception):
    """Iteration failed to stabilize within the guaranteed bound."""


class Skip(Frozen):
    __slots__ = ()


class Guard(Frozen):
    __slots__ = ("guard", "body")

    def __init__(self, guard: StateSet, body: "Transformer"):
        setfield(self, "guard", guard)
        setfield(self, "body", body)


class Precond(Frozen):
    __slots__ = ("precond", "body")

    def __init__(self, precond: StateSet, body: "Transformer"):
        setfield(self, "precond", precond)
        setfield(self, "body", body)


class Choice(Frozen):
    __slots__ = ("left", "right")

    def __init__(self, left: "Transformer", right: "Transformer"):
        setfield(self, "left", left)
        setfield(self, "right", right)


class Seq(Frozen):
    __slots__ = ("first", "second")

    def __init__(self, first: "Transformer", second: "Transformer"):
        setfield(self, "first", first)
        setfield(self, "second", second)


class Dovetail(Frozen):
    __slots__ = ("left", "right")

    def __init__(self, left: "Transformer", right: "Transformer"):
        setfield(self, "left", left)
        setfield(self, "right", right)


class Rel(Frozen):
    """A named event given by a guarded successor relation (see events.py)."""

    __slots__ = ("event",)

    def __init__(self, event):  # events.Event; kept loose to avoid an import cycle
        setfield(self, "event", event)


Transformer = Skip | Guard | Precond | Choice | Seq | Dovetail | Rel


def system_choice(sys) -> Transformer:
    """The demonic choice of every event of an ``events.EventSystem``."""
    t: Transformer = Rel(sys.events[0])
    for e in sys.events[1:]:
        t = Choice(t, Rel(e))
    return t


def apply(t: Transformer, r: StateSet) -> StateSet:
    """Demonic interpretation of ``t`` at postcondition ``r``."""
    if isinstance(t, Skip):
        return r
    if isinstance(t, Guard):
        _check(t.guard, r)
        return t.guard.complement() | apply(t.body, r)
    if isinstance(t, Precond):
        _check(t.precond, r)
        return t.precond & apply(t.body, r)
    if isinstance(t, Choice):
        return apply(t.left, r) & apply(t.right, r)
    if isinstance(t, Seq):
        return apply(t.first, apply(t.second, r))
    if isinstance(t, Dovetail):
        return liberal(t, r) & pre(t, r.space.universe())
    if isinstance(t, Rel):
        return t.event.apply(r)
    raise TypeError(f"bad transformer term {t!r}")


def liberal(t: Transformer, r: StateSet) -> StateSet:
    """Liberal interpretation: may also diverge instead of reaching ``r``."""
    if isinstance(t, Skip):
        return r
    if isinstance(t, Guard):
        _check(t.guard, r)
        return t.guard.complement() | liberal(t.body, r)
    if isinstance(t, Precond):
        _check(t.precond, r)
        if r.is_universe():
            return liberal(t.body, r)
        return t.precond & liberal(t.body, r)
    if isinstance(t, Choice):
        return liberal(t.left, r) & liberal(t.right, r)
    if isinstance(t, Seq):
        return liberal(t.first, liberal(t.second, r))
    if isinstance(t, Dovetail):
        return liberal(t.left, r) & liberal(t.right, r)
    if isinstance(t, Rel):
        # event bodies always terminate, so both interpretations coincide
        return t.event.apply(r)
    raise TypeError(f"bad transformer term {t!r}")


def pre(t: Transformer, universe: StateSet) -> StateSet:
    """Termination set of ``t``."""
    if isinstance(t, Dovetail):
        # fair choice terminates where either branch does, except where the
        # branch that could otherwise be scheduled forever may diverge
        f_u = apply(t.left, universe)
        g_u = apply(t.right, universe)
        f_grd = grd(t.left, universe)
        g_grd = grd(t.right, universe)
        return (f_u | g_u) & (f_grd | g_u) & (g_grd | f_u)
    return apply(t, universe)


def grd(t: Transformer, universe: StateSet) -> StateSet:
    """Enabledness: states where ``t`` is non-miraculous."""
    return apply(t, universe.space.empty()).complement()


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
        """``delta[k]`` lists ``steps[k] ^ steps[k+1]``: the states that join
        (least) or leave (greatest) at step ``k``, because ``_iterate`` only
        accepts monotone chains.  ``steps[k+1] = steps[k] ^ delta[k]`` rebuilds
        the chain from ``steps[0]``, ``∅`` or the universe.  Each delta is a
        :class:`StateSet`, written as its ``to_json()`` list."""
        space = self.steps[0].space
        return {
            "kind": self.kind,
            "delta": [
                StateSet(space, lo.mask ^ hi.mask) for lo, hi in zip(self.steps, self.steps[1:])
            ],
        }


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


def _check(s: StateSet, r: StateSet) -> None:
    if s.space is not r.space:
        raise SpaceMismatch("transformer and postcondition use different spaces")
