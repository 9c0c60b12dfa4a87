"""Every small event system, enumerated exhaustively, and the checks each one
must pass (the small scope hypothesis: Jackson and Damon, ISSTA 1996;
Andoni, Daniliuc, Khurshid and Marinov, 2002).

:func:`systems` yields every system of 1 to ``MAX_EVENTS`` events over
``x : 0 .. n-1`` for ``n`` in 1 and 2, and over one 2-state raw space with
an invariant hole, each once up to a permutation of the states.  An event
is a relation: one successor mask per raw state, 0 off its guard, so the
disabled event is included.  :func:`check_system` holds a system, for every
target ``b``, to the term algebra's Kleene iteration, the trace oracles,
the certificates and the counterexamples, state by state, and its ensures
checks to their definitions for every ``p``, ``q`` and helpful event.
"""
from __future__ import annotations

import itertools

from fixleads.certificates import check_certificate, derive_certificate_mp, derive_certificate_wf
from fixleads.events import EventSystem, gfp, lfp
from fixleads.mp import ensures_mp, leadsto_mp
from fixleads.oracle import SearchGraph, oracle_mp, oracle_wf, validate_counterexample
from fixleads.states import StateSet
from fixleads.transformers import Rel, apply, grd, system_choice
from fixleads.wf import ensures_wf, leadsto_wf

from conftest import event_from_rel, make_space

MAX_EVENTS = 3

# x : 0 .. 0, x : 0 .. 1, and x : 0 .. 1 under x != 0, whose universe is {1}
SPACES = (make_space(1), make_space(2), make_space(2, holes=[0]))


def _relations(space) -> list[tuple[int, ...]]:
    """Every relation over ``space``: a successor mask per raw state, any
    subset of the universe at a state of the universe and 0 at a hole."""
    full = space.full_mask
    images = [m for m in range(full + 1) if not m & ~full]
    return list(itertools.product(*(images if full >> s & 1 else [0] for s in range(space.raw_size))))


def _renamed(relation: tuple[int, ...], perm: tuple[int, ...]) -> tuple[int, ...]:
    """``relation`` with each state ``s`` renamed ``perm[s]``."""
    out = [0] * len(relation)
    for s, image in enumerate(relation):
        out[perm[s]] = sum(1 << perm[t] for t in range(len(relation)) if image >> t & 1)
    return tuple(out)


def systems():
    """``(space, family)`` for every canonical system: ``family`` is its
    relations in sorted order, and no renaming of the states gives a smaller
    sorted family.  A space with holes is not renamed."""
    for space in SPACES:
        whole = space.full_mask == (1 << space.raw_size) - 1
        perms = list(itertools.permutations(range(space.raw_size)))[1:] if whole else []
        for k in range(1, MAX_EVENTS + 1):
            for family in itertools.combinations_with_replacement(_relations(space), k):
                if all(tuple(sorted(_renamed(r, p) for r in family)) >= family for p in perms):
                    yield space, family


def build(space, family) -> EventSystem:
    """The system whose event ``e<i>`` has the relation ``family[i]``."""
    events = []
    for i, relation in enumerate(family):
        rel = {s: image for s, image in enumerate(relation) if image}
        events.append(event_from_rel(f"e{i}", space.from_indices(list(rel)), rel))
    return EventSystem(space, events, space.universe())


def _fair_loop(sys_, t, g, q: StateSet, r: StateSet) -> StateSet:
    """The fair loop of helpful event ``g`` to ``q`` through ``r``, from the
    term algebra's definitions alone: its liberal side (the universe at the
    full postcondition) meets its termination set."""
    u = sys_.space.universe()
    enabled = grd(Rel(g), u)
    liberal = u if r.is_universe() else gfp(
        lambda y: q | (enabled & apply(Rel(g), r) & apply(t, y)), sys_.space)[0]
    leaving = apply(t, q).complement()
    termination = lfp(lambda y: q | enabled | (leaving & apply(t, y)), sys_.space)[0]
    return liberal & termination


def check_system(sys_: EventSystem) -> int:
    """Check ``sys_`` and return the number of ``(b, state, assumption)``
    comparisons made.  ``ensures_mp`` and ``ensures_wf`` equal their
    definitions in the term algebra for every ``p``, ``q`` and helpful
    event.  Per target ``b``, under each assumption: the engine's iterate
    chain equals the term algebra's Kleene chain; a state is in the
    fixpoint iff the oracle holds from it, and the oracle's counterexample
    from it validates, starts there and carries the assumption; the
    certificate derived for the fixpoint is accepted."""
    space = sys_.space
    u = space.universe()
    t = system_choice(sys_)
    enabled = grd(t, u)
    subsets = [StateSet(space, m) for m in range(space.full_mask + 1) if not m & ~space.full_mask]
    for p in subsets:
        for q in subsets:
            assert ensures_mp(sys_, p, q).holds == (p - q).is_subset(enabled & apply(t, q))
            for g in sys_.events:
                step = apply(t, p | q) & grd(Rel(g), u) & apply(Rel(g), q)
                assert ensures_wf(sys_, g, p, q).holds == (p - q).is_subset(step), g.name

    def wf_step(b: StateSet, x: StateSet) -> StateSet:
        for g in sys_.events:
            b = b | _fair_loop(sys_, t, g, x, x)
        return b

    reference = {"mp": lambda b, x: b | (enabled & apply(t, x)), "wf": wf_step}
    compared = 0
    for b in subsets:
        verdicts = {"mp": leadsto_mp(sys_, u, b), "wf": leadsto_wf(sys_, u, b)}
        for assumption, verdict in verdicts.items():
            _, chain = lfp(lambda x: reference[assumption](b, x), space)
            assert [s.mask for s in verdict.trace.steps] == [s.mask for s in chain.steps], assumption
        for s in u:
            a = space.from_indices([s])
            graph = SearchGraph(sys_, a, b)
            for assumption, oracle in (("mp", oracle_mp), ("wf", oracle_wf)):
                holds, cx = oracle(sys_, a, b, graph=graph)
                assert holds == (s in verdicts[assumption].fixpoint) == (cx is None), assumption
                if cx is not None:
                    assert validate_counterexample(sys_, cx, b), assumption
                    assert cx.start in a and cx.assumption == assumption
                compared += 1
        mp, wf = verdicts["mp"], verdicts["wf"]
        cert = derive_certificate_mp(sys_, mp.fixpoint, b, mp.trace)
        assert check_certificate(sys_, cert, (mp.fixpoint, b), "mp")
        cert = derive_certificate_wf(sys_, wf.fixpoint, b, wf.trace, wf.fair_deltas)
        assert check_certificate(sys_, cert, (wf.fixpoint, b), "wf")
    return compared
