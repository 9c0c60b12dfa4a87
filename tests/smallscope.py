"""Every small event system, enumerated exhaustively, and the checks each one
must pass (the small scope hypothesis: Jackson and Damon, ISSTA 1996;
Andoni, Daniliuc, Khurshid and Marinov, 2002).

:func:`systems` yields every system of the given sizes over the given
spaces once up to a permutation of the states: by default 1 to
``MAX_EVENTS`` events over ``x : 0 .. n-1`` for ``n`` in 1 and 2, and over
one 2-state raw space with an invariant hole.  An event is a relation: one
successor mask per raw state, 0 off its guard, so the disabled event is
included.  :func:`check_system` holds a system to every reference.  Run as
a script, this checks every 2-event system over ``x : 0 .. 2``:
``PYTHONPATH=src:tests python tests/smallscope.py``.
"""
from __future__ import annotations

import itertools

from fixleads.certificates import check_certificate, derive_certificate_mp, derive_certificate_wf
from fixleads.events import EventSystem, lfp
from fixleads.mp import ensures_mp, leadsto_mp
from fixleads.oracle import (SearchGraph, oracle_mp, oracle_reachable, oracle_wf,
                             validate_counterexample)
from fixleads.states import StateSet
from fixleads.transformers import Rel, apply, grd, system_choice, wf_step
from fixleads.wf import ensures_wf, leadsto_wf

from conftest import event_from_rel, make_space

MAX_EVENTS = 3

# x : 0 .. 0, x : 0 .. 1, and x : 0 .. 1 under x != 0, whose universe is {1}
SPACES = (make_space(1), make_space(2), make_space(2, holes=[0]))
THREE_STATES = (make_space(3),)


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


def systems(spaces=SPACES, sizes=range(1, MAX_EVENTS + 1)):
    """``(space, family)`` for every canonical system over ``spaces`` with a
    number of events in ``sizes``: ``family`` is its relations in sorted
    order, and no renaming of the states gives a smaller sorted family.  A
    space with holes is not renamed."""
    for space in spaces:
        relations = _relations(space)  # sorted, so indices compare as the relations do
        whole = space.full_mask == (1 << space.raw_size) - 1
        perms = list(itertools.permutations(range(space.raw_size)))[1:] if whole else []
        index = {r: i for i, r in enumerate(relations)}
        renamings = [[index[_renamed(r, p)] for r in relations] for p in perms]
        for k in sizes:
            for family in itertools.combinations_with_replacement(range(len(relations)), k):
                if all(tuple(sorted(ren[i] for i in family)) >= family for ren in renamings):
                    yield space, tuple(relations[i] for i in family)


def build(space, family) -> EventSystem:
    """The system whose event ``e<i>`` has the relation ``family[i]``."""
    events = []
    for i, relation in enumerate(family):
        rel = {s: image for s, image in enumerate(relation) if image}
        events.append(event_from_rel(f"e{i}", space.from_indices(list(rel)), rel))
    return EventSystem(space, events, space.universe())


def check_system(sys_: EventSystem) -> int:
    """Check ``sys_`` and return the number of ``(b, state, assumption)``
    comparisons made.  ``ensures_mp`` and ``ensures_wf`` equal their
    definitions in the term algebra for every ``p``, ``q`` and helpful
    event.  Per target ``b``, under each assumption: the engine's iterate
    chain equals the term algebra's Kleene chain; a state is in the
    fixpoint iff the oracle holds from it, and the oracle's counterexample
    from it validates, starts there and carries the assumption; the
    certificate derived for the fixpoint is accepted.  For every init, the
    strongest invariant is the oracle's reachable set."""
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

    for init in subsets:
        si = EventSystem(space, sys_.events, init).strongest_invariant()
        assert si == oracle_reachable(sys_, init), init.mask
    reference = {"mp": lambda b, x: b | (enabled & apply(t, x)),
                 "wf": lambda b, x: b | wf_step(sys_, x)}
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


if __name__ == "__main__":
    counted = compared = 0
    for space, family in systems(THREE_STATES, (2,)):
        counted += 1
        compared += check_system(build(space, family))
    print(f"small scope, 3 states, 2 events: {counted} systems, {compared} comparisons")
    # 512 relations, so 512 * 513 / 2 = 131 328 families; a transposition of
    # two states fixes 2**5 relations and 32 * 33 / 2 + (512 - 32) / 2 = 768
    # families, a 3-cycle 2**3 relations and 8 * 9 / 2 = 36 families, so
    # (131 328 + 3 * 768 + 2 * 36) / 6 = 22 284 up to renaming (Burnside's
    # lemma); 22 180 of them have no disabled event
    assert counted == 22284
    assert compared == 22284 * 8 * 3 * 2  # each b, each state, under mp and wf
