"""Liveness checks under minimal progress.

A progress step must succeed no matter which enabled event the scheduler
picks, so the one-step transformer is the whole-system choice restricted to
states where at least one event is enabled.  Leads-to is decided by the
least fixpoint of the target-or-step iteration, which is the system's
attractor of the target inside the enabled states.
"""
from __future__ import annotations

from .events import EventSystem
from .states import StateSet
from .variants import VariantFn, rule_verdict, variant_antecedents
from .verdicts import Verdict


def mp_step(sys: EventSystem, r: StateSet) -> StateSet:
    """One iteration step under minimal progress: enabled and all-events-reach-r."""
    return sys.grd_all & sys.apply_all(r)


def ensures_mp(sys: EventSystem, p: StateSet, q: StateSet) -> Verdict:
    return Verdict(holds=(p - q).is_subset(mp_step(sys, q)), relation="E_m")


def leadsto_mp(sys: EventSystem, a: StateSet, b: StateSet) -> Verdict:
    # lfp x. b ∪ mp_step(x), iterate by iterate
    trace = sys.attract(b, sys.grd_all)
    return Verdict(holds=a.is_subset(trace.value), relation="T_m", trace=trace)


def leadsto_mp_si(sys: EventSystem, a: StateSet, b: StateSet) -> Verdict:
    """Leads-to on reachable states only: the plain check of ``si ∩ a`` to ``si ∩ b``."""
    si = sys.strongest_invariant()
    v = leadsto_mp(sys, si & a, si & b)
    v.details["si"] = si
    return v


def rule_mp_variant(sys: EventSystem, a: StateSet, b: StateSet, variant: VariantFn) -> Verdict:
    """Variant-decrease rule: sufficient conditions for leads-to under MP.

    Antecedents: outside the target, every event step from ``a`` strictly
    decreases the variant, and ``a`` is both enabled and invariant.  On
    success the conclusion is re-verified against the direct fixpoint.
    """
    details = variant_antecedents(a - b, variant, sys.apply_all, mp_step(sys, a))
    return rule_verdict("rule-mp-variant", not details, details, lambda: leadsto_mp(sys, a, b))
