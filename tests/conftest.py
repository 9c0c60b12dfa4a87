"""Shared fixtures and random model generators for the test suite."""
import importlib.util
import itertools
import os
import random
import re
import sys
from collections import deque
from typing import Iterable

import pytest

from fixleads import (
    Elaborated,
    Event,
    EventSystem,
    Property,
    StateSet,
    StateSpace,
    VarDecl,
    VariantFn,
    lfp,
)
from fixleads.cli import check_property, resolve
from fixleads.exprs import And, Cmp, IntLit, Name
from fixleads.oracle import _walk
from fixleads.states import bit_positions

from fixtures import (
    cycle3_system,
    idle_system,
    ladder3_system,
    mono3_system,
    twodown_system,
    x_set,
)


@pytest.fixture
def idle():
    return idle_system()


@pytest.fixture
def mono3():
    return mono3_system()


@pytest.fixture
def ladder3():
    return ladder3_system()


@pytest.fixture
def cycle3():
    return cycle3_system()


@pytest.fixture
def twodown():
    return twodown_system()


def xs(sys, *values):
    return x_set(sys, values)


def perfbench_models():
    """``perfbench/models.py``, the benchmark's model families, imported
    read-only by path."""
    name = "perfbench_models"
    if name not in sys.modules:
        path = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench", "models.py")
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # its dataclass looks its module up there
        spec.loader.exec_module(module)
    return sys.modules[name]


def raw_states(space: StateSpace) -> list[tuple]:
    """The values of every raw state of ``space``, in declaration order, by
    raw index, holes included: the mixed-radix enumeration with the first
    declared variable fastest, read off the declarations alone, as the
    reference for the space's codec."""
    return [t[::-1] for t in itertools.product(*(v.domain for v in reversed(space.vars)))]


def event_from_rel(name: str, guard: StateSet, rel: dict[int, int]) -> Event:
    """The event with successor mask ``rel[s]`` at each guarded state ``s``:
    its edges grouped into offset classes by ``d = t - s``, sorted by ``d``,
    independently of ``dsl``, and its decoded ``rel`` checked against
    ``rel``."""
    rows: dict[int, int] = {}  # d -> the states with an edge s -> s + d
    for s, image in rel.items():
        for t in bit_positions(image):
            rows[t - s] = rows.get(t - s, 0) | 1 << s
    event = Event(name, guard, tuple(sorted(rows.items())))
    assert event.rel == rel
    return event


def variant_from_table(space: StateSpace, table: dict[int, int], name: str = "variant") -> VariantFn:
    """The variant taking the value ``table[s]`` at each state ``s``."""
    levels: dict[int, int] = {}
    for s, val in table.items():
        levels[val] = levels.get(val, 0) | 1 << s
    return VariantFn.from_levels(space, levels, name)


def level_set(variant: VariantFn, n: int) -> StateSet:
    """The states at which ``variant`` takes the value ``n``."""
    return StateSet(variant.space, variant._levels.get(n, 0))


def make_space(n: int, holes: Iterable[int] = ()) -> StateSpace:
    """``x : 0 .. n-1``, under ``invariant x != k and ...`` for each ``k`` of
    ``holes``: a universe whose mask has those raw indices cleared."""
    clauses = [Cmp("!=", Name("x"), IntLit(k)) for k in holes]
    invariant = And(tuple(clauses)) if len(clauses) > 1 else clauses[0] if clauses else None
    return StateSpace([VarDecl("x", tuple(range(n)))], invariant)


def random_set(rng: random.Random, space: StateSpace) -> StateSet:
    return StateSet(space, rng.getrandbits(space.raw_size) & space.full_mask)


def random_state(rng: random.Random, space: StateSpace) -> int:
    return rng.choice(list(space.universe()))


def random_event(rng: random.Random, space: StateSpace, name: str) -> Event:
    guard = random_set(rng, space)
    rel = {}
    for s in guard:
        img = random_set(rng, space).mask
        if img == 0:
            img = 1 << random_state(rng, space)  # images must be non-empty
        rel[s] = img
    return event_from_rel(name, guard, rel)


def random_system(
    rng: random.Random, max_states: int = 10, max_events: int = 4
) -> EventSystem:
    return random_system_over(rng, rng.randint(1, max_states), max_events)


def random_system_over(rng: random.Random, n: int, max_events: int = 4) -> EventSystem:
    """A random system over ``x : 0 .. n-1``.  In about a third of the draws
    an invariant clears up to a third of the raw states, so the universe has
    holes."""
    holes = ()
    if n > 1 and rng.random() < 1 / 3:
        holes = rng.sample(range(n), rng.randint(1, max(1, n // 3)))
    space = make_space(n, holes)
    events = [
        random_event(rng, space, f"e{i}")
        for i in range(rng.randint(1, max_events))
    ]
    init = random_set(rng, space)
    if init.is_empty():
        init = space.from_indices([random_state(rng, space)])
    return EventSystem(space, events, init)


def restricted_leadsto(sys_, a, b, step):
    """Reference for the ``with si`` checks: the least fixpoint of
    ``x ↦ (si ∩ b) ∪ step(x)``, holding when ``si ∩ a`` lies inside it."""
    si = sys_.strongest_invariant()
    target = si & b
    fix, trace = lfp(lambda x: target | step(sys_, x), sys_.space)
    return (si & a).is_subset(fix), fix, trace, si


def si_verdict(sys_, a, b, assumption):
    """``check_property`` on the resolved claim of ``leadsto {a} {b} under
    <assumption> with si``: the path every CLI command takes."""
    prop = Property("claim", "leadsto", a, b, assumption, with_si=True)
    elab = Elaborated(sys_, [prop], {}, has_init=True)
    return check_property(elab, prop, resolve(elab, prop))


def assert_matches_restricted(verdict, reference):
    holds, fix, trace, si = reference
    assert verdict.holds == holds
    assert verdict.fixpoint.mask == fix.mask
    assert [s.mask for s in verdict.trace.steps] == [s.mask for s in trace.steps]
    assert verdict.details["si"].mask == si.mask


def reference_shortest_cycle(adj, node):
    """Reference for the shortest cycle through ``node`` that the oracle's
    ``_walk(adj, node, node.__eq__)`` finds: its former search, a BFS seeded
    with ``node``'s successors that stops when it pops ``node``."""
    for ev, t in adj[node]:
        if t == node:
            return [(ev, node)]
    parent = {}
    dq = deque()
    for ev, t in adj[node]:
        if t not in parent:
            parent[t] = (node, ev)
            dq.append(t)
    best = None
    while dq:
        s = dq.popleft()
        if s == node:
            best = s
            break
        for ev, t in adj[s]:
            if t not in parent:
                parent[t] = (s, ev)
                dq.append(t)
    assert best is not None, "node is not on a cycle"
    steps = []
    cur = node
    first = True
    while first or cur != node:
        first = False
        prev, ev = parent[cur]
        steps.append((ev, cur))
        cur = prev
    steps.reverse()
    return steps


def reference_bit_positions(mask: int) -> list[int]:
    """Reference for ``states.bit_positions``: its former walk over every
    character of the ``bin`` text."""
    return [i for i, c in enumerate(bin(mask)[:1:-1]) if c == "1"]


def reference_full_width_scan(mask: int) -> list[int]:
    """Reference for the regex scan of ``states.bit_positions``: its former
    reader, the scan of the ``bin`` text of the whole width."""
    return [m.start() for m in re.finditer("1", bin(mask)[:1:-1])]


def reference_sccs(adj) -> list[list[int]]:
    """Reference for ``oracle._sccs``: its former Tarjan over dicts keyed by
    state, iterative, roots in ascending state order, each component sorted."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: dict[int, bool] = {}
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = [0]

    for root in sorted(adj):
        if root in index:
            continue
        work = [(root, 0)]
        while work:
            node, ei = work[-1]
            if ei == 0:
                index[node] = low[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack[node] = True
            advanced = False
            edges = adj[node]
            while ei < len(edges):
                t = edges[ei][1]
                ei += 1
                if t not in index:
                    work[-1] = (node, ei)
                    work.append((t, 0))
                    advanced = True
                    break
                if on_stack.get(t):
                    low[node] = min(low[node], index[t])
            if advanced:
                continue
            work.pop()
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == node:
                        break
                sccs.append(sorted(comp))
            if work:
                pnode, _ = work[-1]
                low[pnode] = min(low[pnode], low[node])
    return sccs


def reference_fair_tour(adj, inside, size, anchor, witness_edges):
    """Reference for ``oracle._fair_cycle``: its former tour, a closed walk
    from ``anchor`` over edges into the ``size`` states that ``inside``
    accepts, which takes every witness edge and visits every one of those
    states: a BFS leg to each witness edge in event-name order, then BFS legs
    that each stop at the first state not yet on the walk, then one back to
    ``anchor``."""
    cycle: list[tuple[str, int]] = []
    cur = anchor
    witness: dict[str, int] = {}
    for name in sorted(witness_edges):
        s, t = witness_edges[name]
        if s != cur:
            cycle += _walk(adj, cur, s.__eq__, inside)
        witness[name] = len(cycle)
        cycle.append((name, t))
        cur = t
    on_walk = {anchor, *(v for _, v in cycle)}
    while len(on_walk) < size:
        leg = _walk(adj, cur, lambda v: v not in on_walk and inside(v), inside)
        on_walk.update(v for _, v in leg)
        cycle += leg
        cur = leg[-1][1]
    if cur != anchor:
        cycle += _walk(adj, cur, anchor.__eq__, inside)
    return cycle, witness


def variant_decreasing_system(rng: random.Random, max_states: int = 8):
    """A system whose every event strictly lowers the state index outside 0,
    plus the variant V(x) = x; index 0 is absorbing via a self-loop."""
    n = rng.randint(2, max_states)
    space = make_space(n)
    events = []
    for i in range(rng.randint(1, 3)):
        guard_mask = 0
        rel = {}
        for s in range(1, n):
            if rng.random() < 0.8:
                guard_mask |= 1 << s
                succs = rng.sample(range(s), k=rng.randint(1, s))
                rel[s] = sum(1 << t for t in succs)
        events.append(event_from_rel(f"d{i}", StateSet(space, guard_mask), rel))
    stay = event_from_rel("stay", StateSet(space, 1), {0: 1})
    events.append(stay)
    init = space.universe()
    sys_ = EventSystem(space, events, init)
    variant = variant_from_table(space, {s: s for s in range(n)}, "down")
    return sys_, variant
