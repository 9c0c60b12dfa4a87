"""The paper's reference semantics: the term algebra of set transformers.

Each term has two interpretations over a postcondition set: the demonic one
(``apply``: start states guaranteed to terminate inside the postcondition)
and the liberal one (``liberal``: terminate inside it or loop forever).
``pre`` is the termination set, ``grd`` the enabledness set.  The fair-choice
(dovetail) term only has direct liberal/termination definitions; its demonic
meaning comes from the pairing condition ``apply = liberal ∩ pre``.

The laws at the end, the fair loop among them, are stated from the term
algebra alone as the paper defines them, and the tests hold the engines to
them.  No engine imports this module and it imports no engine; ``lfp``,
``gfp`` and ``IterateTrace`` are the kernel's (``events``), bound here by name.
"""
from __future__ import annotations

from collections.abc import Callable

from .events import Event, EventSystem, FixpointError, IterateTrace, gfp, lfp
from .records import Frozen, setfield
from .states import StateSet, SpaceMismatch
from .variants import VariantFn, rule_verdict, variant_antecedents
from .verdicts import Verdict


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
    """A named event given by a guarded successor relation."""

    __slots__ = ("event",)

    def __init__(self, event: Event):
        setfield(self, "event", event)


Transformer = Skip | Guard | Precond | Choice | Seq | Dovetail | Rel


def system_choice(sys: EventSystem) -> Transformer:
    """The demonic choice of every event of ``sys``."""
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


def _check(s: StateSet, r: StateSet) -> None:
    if s.space is not r.space:
        raise SpaceMismatch("transformer and postcondition use different spaces")


def fair_loop_liberal(sys: EventSystem, q: StateSet, g: Event, r: StateSet) -> StateSet:
    """Liberal interpretation of the fair loop for helpful event ``g``: reach
    ``q``, or loop forever while ``g`` stays enabled and guaranteed to reach
    ``r``.  At the full postcondition it is the universe."""
    if r.is_universe():
        return sys.space.universe()
    t, stay = system_choice(sys), grd(Rel(g), sys.space.universe()) & apply(Rel(g), r)
    return gfp(lambda y: q | (stay & apply(t, y)), sys.space)[0]


def fair_loop_termination(sys: EventSystem, q: StateSet, g: Event) -> StateSet:
    """Termination set of the fair loop for helpful event ``g``."""
    t, base = system_choice(sys), q | grd(Rel(g), sys.space.universe())
    leaving = apply(t, q).complement()
    return lfp(lambda y: base | (leaving & apply(t, y)), sys.space)[0]


def wf_step(sys: EventSystem, r: StateSet) -> StateSet:
    """One fair iteration step: the union over every event ``g`` of its fair
    loop to ``r``, the liberal loop met with its termination set."""
    out = sys.space.empty()
    for g in sys.events:
        out = out | (fair_loop_liberal(sys, r, g, r) & fair_loop_termination(sys, r, g))
    return out


def check_variant_theorem(
    f: Callable[[StateSet], StateSet], p: StateSet, variant: VariantFn
) -> Verdict:
    """Check the variant-decrease conditions for ``p`` lying inside lfp(f).

    ``f`` must be monotone and conjunctive.  Antecedents: each level of the
    variant inside ``p`` maps under ``f`` into the strictly-lower levels, and
    ``p`` is invariant under ``f``.  On success the conclusion is verified
    directly.
    """
    details = variant_antecedents(p, variant, f, f(p))

    def direct() -> Verdict:
        fix, trace = lfp(f, p.space)
        return Verdict(holds=p.is_subset(fix), relation="lfp", trace=trace)

    return rule_verdict("variant-theorem", not details, details, direct)
