"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every criterion is decided by exhaustive desk-scale checks or randomized
cross-validation between the fixpoint engines and the independent trace
oracle.  Seeds are fixed so runs are reproducible.
"""
import random


from fixleads import (
    Dovetail,
    StateSet,
    apply,
    check_certificate,
    check_variant_theorem,
    derive_certificate_mp,
    derive_certificate_wf,
    ensures_mp,
    ensures_wf,
    grd,
    leadsto_mp,
    leadsto_wf,
    liberal,
    mp_step,
    oracle_mp,
    oracle_reachable,
    oracle_wf,
    pre,
    rule_mp_variant,
    rule_wf_to_mp,
    validate_counterexample,
    wf_step,
)
from fixleads.certificates import Basic, Disj, Trans, _leaf_ok
from fixleads.transformers import fair_loop_liberal, fair_loop_termination
from fixleads.wf import fair_loop

from conftest import (
    level_set,
    make_space,
    random_event,
    random_set,
    random_system,
    random_system_over,
    variant_decreasing_system,
    variant_from_table,
    xs,
)
from fixtures import (
    cycle3_system,
    idle_system,
    ladder3_system,
    mono3_system,
    twodown_system,
)


def _report(number, description, ok):
    print(f"ACCEPTANCE {number} ({description}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} failed: {description}"


def _sized_system(rng):
    """|u| <= 64, skewed toward small spaces, up to 4 events."""
    r = rng.random()
    if r < 0.85:
        n = rng.randint(1, 10)
    elif r < 0.97:
        n = rng.randint(11, 24)
    else:
        n = rng.randint(25, 64)
    return random_system_over(rng, n)


def test_acceptance_1_mp_verdicts_match_oracle():
    rng = random.Random(101)
    mismatches = 0
    for _ in range(200):
        sys_ = _sized_system(rng)
        for _ in range(50):
            a, b = random_set(rng, sys_.space), random_set(rng, sys_.space)
            verdict = leadsto_mp(sys_, a, b)
            holds, cx = oracle_mp(sys_, a, b)
            if verdict.holds != holds:
                mismatches += 1
            if cx is not None and not validate_counterexample(sys_, cx, b):
                mismatches += 1
    _report(1, "MP leads-to equals trace oracle on 200x50 random checks",
            mismatches == 0)


def test_acceptance_2_wf_verdicts_match_oracle():
    rng = random.Random(202)
    mismatches = 0
    for _ in range(200):
        sys_ = _sized_system(rng)
        for _ in range(50):
            a, b = random_set(rng, sys_.space), random_set(rng, sys_.space)
            verdict = leadsto_wf(sys_, a, b)
            holds, cx = oracle_wf(sys_, a, b)
            if verdict.holds != holds:
                mismatches += 1
            if cx is not None and not validate_counterexample(sys_, cx, b):
                mismatches += 1
    _report(2, "WF leads-to equals trace oracle on 200x50 random checks",
            mismatches == 0)


def test_acceptance_3_fixture_differentials():
    idle = idle_system()
    cycle3 = cycle3_system()
    mono3 = mono3_system()
    checks = [
        leadsto_mp(idle, xs(idle, 0), xs(idle, 1)).holds is False,
        leadsto_wf(idle, xs(idle, 0), xs(idle, 1)).holds is True,
        leadsto_mp(cycle3, xs(cycle3, 0), xs(cycle3, 2)).holds is False,
        leadsto_wf(cycle3, xs(cycle3, 0), xs(cycle3, 2)).holds is False,
        leadsto_mp(mono3, xs(mono3, 0), xs(mono3, 2)).holds is True,
        leadsto_wf(mono3, xs(mono3, 0), xs(mono3, 2)).holds is True,
    ]
    _report(3, "fixture differentials under MP and WF", all(checks))


def test_acceptance_4_fair_loop_laws():
    rng = random.Random(404)
    ok = True
    for _ in range(100):
        sys_ = random_system(rng, max_states=7)
        sp = sys_.space
        q = random_set(rng, sp)
        g = sys_.events[rng.randrange(len(sys_.events))]
        r = random_set(rng, sp)
        # guard law: an empty reach set collapses the loop to q
        ok &= fair_loop(sys_, q, g, sp.empty()).mask == q.mask
        # liberal loop stays below the termination set (r strictly below u)
        r_strict = r if not r.is_universe() else r - sp.from_indices([next(iter(r))])
        if sp.size > 0 and not r_strict.is_universe():
            ok &= fair_loop_liberal(sys_, q, g, r_strict).is_subset(
                fair_loop_termination(sys_, q, g))
        # pairing: demonic loop = liberal loop intersected with termination
        ok &= fair_loop(sys_, q, g, r).mask == (
            fair_loop_liberal(sys_, q, g, r)
            & fair_loop_termination(sys_, q, g)).mask
        # monotonicity in the reach set
        bigger = r | random_set(rng, sp)
        ok &= fair_loop(sys_, q, g, r).is_subset(fair_loop(sys_, q, g, bigger))
        # fair step strict and monotone
        ok &= wf_step(sys_, sp.empty()).is_empty()
        ok &= wf_step(sys_, r).is_subset(wf_step(sys_, bigger))
    _report(4, "fair-loop laws on 100 random systems", ok)


def _random_term(rng, sp, depth=3):
    from fixleads import Choice, Guard, Precond, Rel, Seq, Skip

    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Skip()
        return Rel(random_event(rng, sp, "e"))
    kind = rng.randrange(5)
    sub = lambda: _random_term(rng, sp, depth - 1)
    if kind == 0:
        return Guard(random_set(rng, sp), sub())
    if kind == 1:
        return Precond(random_set(rng, sp), sub())
    if kind == 2:
        return Choice(sub(), sub())
    if kind == 3:
        return Seq(sub(), sub())
    return Dovetail(sub(), sub())


def test_acceptance_5_dovetail_laws():
    rng = random.Random(505)
    sp = make_space(3)
    u = sp.universe()
    ok = True
    pairs = [(_random_term(rng, sp), _random_term(rng, sp)) for _ in range(100)]
    for f, g in pairs:
        d = Dovetail(f, g)
        for mask in range(sp.full_mask + 1):
            r = StateSet(sp, mask)
            # liberal distributes over the fair choice
            ok &= liberal(d, r).mask == (liberal(f, r) & liberal(g, r)).mask
        # termination set follows the fair-choice formula
        f_u, g_u = apply(f, u), apply(g, u)
        expect_pre = (f_u | g_u) & (grd(f, u) | g_u) & (grd(g, u) | f_u)
        ok &= pre(d, u).mask == expect_pre.mask
        # guard of the fair choice is the union of guards
        ok &= grd(d, u).mask == (grd(f, u) | grd(g, u)).mask
        # demonic interpretation obeys pairing
        for mask in (0, 1, sp.full_mask):
            r = StateSet(sp, mask)
            ok &= apply(d, r).mask == (liberal(d, r) & pre(d, u)).mask
    _report(5, "dovetail laws on 100 random transformer pairs", ok)


def test_acceptance_6_variant_theorem():
    rng = random.Random(606)
    ok = True
    passes = 0
    for _ in range(50):
        sys_ = random_system(rng, max_states=7)
        sp = sys_.space
        b = random_set(rng, sp)
        f = lambda x: b | mp_step(sys_, x)
        variant = variant_from_table(sp, {s: rng.randint(0, sp.size) for s in sp.universe()})
        p = random_set(rng, sp)
        verdict = check_variant_theorem(f, p, variant)  # self-check on success
        if verdict.holds:
            passes += 1
            ok &= p.is_subset(verdict.fixpoint)
    # level-set identities on every fixture variant
    fixture_variants = [
        (mono3_system(), {0: 2, 1: 1, 2: 0}),
        (ladder3_system(), {0: 2, 1: 1, 2: 0}),
        (twodown_system(), {0: 0, 1: 1, 2: 2}),
    ]
    for sys_, table in fixture_variants:
        v = variant_from_table(sys_.space, table)
        sp = sys_.space
        union_levels = sp.empty()
        for n in range(max(table.values()) + 2):
            ok &= (level_set(v, n) & union_levels).is_empty()  # disjoint levels
            union_levels = union_levels | level_set(v, n)
        ok &= union_levels.is_universe()
    _report(6, f"variant theorem self-checks ({passes} antecedent passes) "
               "and level-set identities", ok)


def test_acceptance_7_variant_rules_sound():
    ok = True
    mono3 = mono3_system()
    twodown = twodown_system()
    togo = variant_from_table(mono3.space, {0: 2, 1: 1, 2: 0})
    down = variant_from_table(twodown.space, {0: 0, 1: 1, 2: 2})
    v = rule_mp_variant(mono3, mono3.space.universe(), xs(mono3, 2), togo)
    ok &= v.holds and leadsto_mp(mono3, mono3.space.universe(), xs(mono3, 2)).holds
    v = rule_wf_to_mp(twodown, twodown.space.universe(), xs(twodown, 0), down)
    ok &= v.holds and leadsto_mp(twodown, twodown.space.universe(), xs(twodown, 0)).holds
    rng = random.Random(707)
    antecedent_passes = 0
    for _ in range(50):
        sys_, variant = variant_decreasing_system(rng)
        a = random_set(rng, sys_.space)
        b = random_set(rng, sys_.space) | sys_.space.from_indices([0])
        for rule in (rule_mp_variant, rule_wf_to_mp):
            # both rules re-verify their conclusion internally and raise a
            # defect on disagreement, so plain returns mean soundness held
            verdict = rule(sys_, a, b, variant)
            if verdict.holds:
                antecedent_passes += 1
                ok &= leadsto_mp(sys_, a, b).holds
    _report(7, f"variant rules never contradict the fixpoint "
               f"({antecedent_passes} antecedent passes)", ok)


def test_acceptance_8_strongest_invariant():
    ok = True
    fixtures = [idle_system(), mono3_system(), ladder3_system(),
                cycle3_system(), twodown_system()]
    rng = random.Random(808)
    systems = fixtures + [random_system(rng, max_states=8) for _ in range(100)]
    for sys_ in systems:
        si = sys_.strongest_invariant()
        ok &= si.mask == oracle_reachable(sys_, sys_.init).mask
        ok &= si.is_subset(sys_.apply_all(si))
    # a one-step check restricted to reachable states implies the
    # reachable-only leads-to membership, for both assumptions
    for _ in range(200):
        sys_ = random_system(rng, max_states=6)
        si = sys_.strongest_invariant()
        p, q = random_set(rng, sys_.space), random_set(rng, sys_.space)
        p_r, q_r = si & p, si & q
        if ensures_mp(sys_, p_r, q_r).holds:
            ok &= leadsto_mp(sys_, p_r, q_r).holds
        for g in sys_.events:
            if ensures_wf(sys_, g, p_r, q_r).holds:
                ok &= leadsto_wf(sys_, p_r, q_r).holds
    _report(8, "strongest invariant equals reachability; restricted ensures "
               "implies restricted leads-to", ok)


def _all_leaves(cert):
    if isinstance(cert, Basic):
        return [cert]
    parts = cert.links if isinstance(cert, Trans) else cert.parts
    return [leaf for part in parts for leaf in _all_leaves(part)]


def _replace_leaf(cert, target, new):
    if cert is target:
        return new
    if isinstance(cert, Trans):
        return Trans(tuple(_replace_leaf(link, target, new) for link in cert.links))
    if isinstance(cert, Disj):
        return Disj(tuple(_replace_leaf(p, target, new) for p in cert.parts),
                    cert.q)
    return cert


def test_acceptance_9_certificates():
    rng = random.Random(909)
    derived = 0
    rechecked = 0
    mutations = 0
    rejected = 0
    surviving_ok = True
    while derived < 60:
        sys_ = random_system(rng, max_states=6)
        a, b = random_set(rng, sys_.space), random_set(rng, sys_.space)
        for assumption, check, derive in (
            ("mp", leadsto_mp, lambda v: derive_certificate_mp(sys_, a, b, v.trace)),
            ("wf", leadsto_wf,
             lambda v: derive_certificate_wf(sys_, a, b, v.trace, v.fair_deltas)),
        ):
            verdict = check(sys_, a, b)
            if not verdict.holds:
                continue
            cert = derive(verdict)
            derived += 1
            if check_certificate(sys_, cert, (a, b), assumption):
                rechecked += 1
            for leaf in _all_leaves(cert):
                for idx in sys_.space.universe():
                    single = sys_.space.from_indices([idx])
                    candidates = []
                    if idx not in leaf.p:
                        candidates.append(
                            Basic(leaf.p | single, leaf.q, leaf.assumption, leaf.helpful))
                    if idx in leaf.q:
                        candidates.append(
                            Basic(leaf.p, leaf.q - single, leaf.assumption, leaf.helpful))
                    for mutant in candidates:
                        if _leaf_ok(sys_, mutant):
                            continue  # not a breaking mutation
                        mutations += 1
                        mutated = _replace_leaf(cert, leaf, mutant)
                        if not check_certificate(sys_, mutated, (a, b), assumption):
                            rejected += 1
                        else:
                            # acceptance despite a broken leaf would be unsound
                            surviving_ok = False
    ok = (rechecked == derived and mutations > 0
          and rejected >= 0.95 * mutations and surviving_ok)
    _report(9, f"certificates: {rechecked}/{derived} recheck, "
               f"{rejected}/{mutations} breaking mutations rejected", ok)


def test_acceptance_10_iterate_traces():
    rng = random.Random(1010)
    ok = True
    for _ in range(100):
        sys_ = random_system(rng, max_states=8)
        a, b = random_set(rng, sys_.space), random_set(rng, sys_.space)
        for engine in (leadsto_mp, leadsto_wf):
            trace = engine(sys_, a, b).trace
            ok &= trace.steps[0].is_empty()
            ok &= trace.steps[-1].mask == trace.steps[-2].mask
            ok &= len(trace.steps) <= sys_.space.size + 2
            for lo, hi in zip(trace.steps, trace.steps[1:]):
                ok &= lo.is_subset(hi)
            for step in trace.steps:
                ok &= step.is_subset(trace.value)
    _report(10, "iterate traces are monotone, stabilize in |u|+1 steps, "
                "and stay below the fixpoint", ok)
