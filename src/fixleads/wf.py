"""Liveness checks under weak fairness.

A fair step trusts one helpful event: iterate the whole system while the
helpful event stays enabled and guaranteed to reach the target, knowing
fair scheduling must eventually run it.  The loop for a helpful event is a
greatest fixpoint; a fair step unions the loops of all events; leads-to is
again a least fixpoint over fair steps.
"""
from __future__ import annotations

from .events import Event, EventSystem, lfp
from .mp import leadsto_mp, mp_step
from .states import StateSet
from .variants import VariantFn, rule_verdict, variant_antecedents
from .verdicts import SelfCheckDefect, Verdict


def fair_loop(sys: EventSystem, q: StateSet, g: Event, r: StateSet) -> StateSet:
    """Start states from which looping the system, with ``g`` fairly scheduled
    and guaranteed to reach ``r``, terminates in ``q``.  It is ``q`` itself
    when ``g.guarded_apply(r)``, where ``g`` is enabled and only steps into
    ``r``, lies inside ``q``."""
    stay = g.guarded_apply(r)
    if stay.is_subset(q):
        # the gfp's step below is then constantly q; at the full postcondition
        # stay is grd g, and the termination set's step adds ¬AX q ∩ AX q = ∅
        return q
    if r.is_universe():
        # at the full postcondition the liberal side is trivial, so the demonic
        # loop is its termination set: lfp x. (q ∪ grd g) ∪ (¬AX q ∩ AX x)
        return sys.attract(q | g.guard, sys.apply_all(q).complement()).value
    # gfp x. q ∪ (g.guarded_apply(r) ∩ AX x)
    return sys.weak_attract(q, stay)


def fair_deltas(sys: EventSystem, r: StateSet) -> tuple[tuple[str, StateSet], ...]:
    """Each event whose fair loop to ``r`` adds a state beyond ``r``, with the
    states it adds, in declaration order: ``fair_loop(sys, r, g, r)`` is ``r``
    plus those.  An event whose guarded states all step into ``r`` adds
    nothing: :func:`fair_loop` returns ``r`` for it at once."""
    out = []
    for g in sys.events:
        added = fair_loop(sys, r, g, r) - r
        if not added.is_empty():
            out.append((g.name, added))
    return tuple(out)


def ensures_wf(sys: EventSystem, g: Event, p: StateSet, q: StateSet) -> Verdict:
    rhs = sys.apply_all(p | q) & g.guarded_apply(q)
    ok = (p - q).is_subset(rhs)
    v = Verdict(holds=ok, relation="E_w")
    v.details["helpful"] = g.name
    return v


def leadsto_wf(sys: EventSystem, a: StateSet, b: StateSet) -> Verdict:
    """The verdict carries, in ``fair_deltas[k]``, the :func:`fair_deltas` of
    iterate ``k``, which build iterate ``k + 1`` as ``b ∪ steps[k]`` plus them:
    each event's fair loop to ``x`` is ``x`` plus its delta."""
    deltas = []

    def fair_step(x: StateSet) -> StateSet:
        deltas.append(fair_deltas(sys, x))
        mask = b.mask | x.mask
        for _, added in deltas[-1]:
            mask |= added.mask
        return StateSet(sys.space, mask)

    # a Kleene loop, not a kernel call: its iterates are the certificate layers
    fix, trace = lfp(fair_step, sys.space)
    # every iterate stays inside target-or-(enabled and one step from the
    # fixpoint), or the WF-to-MP bridge is unsound; the iterates increase to
    # the fixpoint, so testing it tests them all
    if not fix.is_subset(b | mp_step(sys, fix)):
        raise SelfCheckDefect("fair iterate escapes the one-step bound")
    return Verdict(holds=a.is_subset(fix), relation="T_w", trace=trace,
                   fair_deltas=tuple(deltas))


def leadsto_wf_si(sys: EventSystem, a: StateSet, b: StateSet) -> Verdict:
    """Leads-to on reachable states only: the plain check of ``si ∩ a`` to ``si ∩ b``."""
    si = sys.strongest_invariant()
    v = leadsto_wf(sys, si & a, si & b)
    v.details["si"] = si
    return v


def rule_wf_to_mp(sys: EventSystem, a: StateSet, b: StateSet, variant: VariantFn) -> Verdict:
    """Bridge rule: a leads-to proved under weak fairness carries over to
    minimal progress when every event decreases the variant outside ``b``."""
    # no invariance antecedent: its bound is the universe
    details = variant_antecedents(b.complement(), variant, sys.apply_all, sys.space.universe())
    wf_verdict = leadsto_wf(sys, a, b)
    holds = not details and wf_verdict.holds
    details["wf_holds"] = wf_verdict.holds
    return rule_verdict("rule-wf-to-mp", holds, details, lambda: leadsto_mp(sys, a, b))
