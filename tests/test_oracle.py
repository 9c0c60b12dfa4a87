"""Trace-semantics oracle: verdicts, counterexamples, and their validator."""
import os
import random

from hypothesis import given, settings, strategies as st

import pytest

from fixleads import load_file, oracle
from fixleads.cli import resolve
from fixleads.oracle import (
    Counterexample,
    SearchGraph,
    _edges_within,
    _fair_component,
    _fair_cycle,
    _path_from_root,
    _walk,
    oracle_mp,
    oracle_reachable,
    oracle_wf,
    validate_counterexample,
)

from conftest import (
    perfbench_models,
    random_set,
    random_system,
    reference_fair_tour,
    reference_sccs,
    reference_shortest_cycle,
    xs,
)

DATA = os.path.join(os.path.dirname(__file__), "data")


def test_oracle_mp_idle_lasso(idle):
    ok, cx = oracle_mp(idle, xs(idle, 0), xs(idle, 1))
    assert not ok
    assert cx.kind == "lasso"
    assert cx.start == idle.space.index_of({"x": 0})
    assert cx.prefix == []
    assert cx.cycle == [("idle", cx.start)]
    assert validate_counterexample(idle, cx, xs(idle, 1))


def test_oracle_mp_mono3_holds(mono3):
    ok, cx = oracle_mp(mono3, xs(mono3, 0), xs(mono3, 2))
    assert ok and cx is None


def test_oracle_mp_trivial(mono3):
    assert oracle_mp(mono3, xs(mono3, 1), xs(mono3, 1, 2))[0]


def test_oracle_mp_deadlock(mono3):
    # from x=2 no event is enabled, so x=2 never leads to x=1
    ok, cx = oracle_mp(mono3, xs(mono3, 2), xs(mono3, 1))
    assert not ok
    assert cx.kind == "deadlock-path"
    assert cx.prefix == []
    assert cx.start == mono3.space.index_of({"x": 2})
    assert validate_counterexample(mono3, cx, xs(mono3, 1))


def test_oracle_wf_idle_holds(idle):
    ok, cx = oracle_wf(idle, xs(idle, 0), xs(idle, 1))
    assert ok and cx is None


def test_oracle_wf_cycle3_fair_lasso(cycle3):
    ok, cx = oracle_wf(cycle3, xs(cycle3, 0), xs(cycle3, 2))
    assert not ok
    assert cx.kind == "lasso" and cx.assumption == "wf"
    assert "inc" in cx.fairness_witness  # inc is enabled on the whole cycle
    assert "dec" not in cx.fairness_witness  # dec is disabled at 0, so exempt
    assert validate_counterexample(cycle3, cx, xs(cycle3, 2)), cx
    # cycle stays within {0,1}
    assert all(s in (0, 1) for s in cx.states())


def test_oracle_wf_trivial(cycle3):
    assert oracle_wf(cycle3, xs(cycle3, 1), xs(cycle3, 1, 2))[0]


def test_oracle_reachable(mono3, idle):
    assert oracle_reachable(mono3, xs(mono3, 0)).is_universe()
    assert oracle_reachable(mono3, mono3.space.empty()).is_empty()
    assert sorted(oracle_reachable(idle, xs(idle, 1))) == [1]


def test_oracle_deterministic(cycle3):
    a, b = xs(cycle3, 0), xs(cycle3, 2)
    first = oracle_wf(cycle3, a, b)[1]
    second = oracle_wf(cycle3, a, b)[1]
    assert first.to_json(cycle3.space) == second.to_json(cycle3.space)


def test_validator_rejects_corrupt_counterexamples(idle):
    ok, cx = oracle_mp(idle, xs(idle, 0), xs(idle, 1))
    assert not ok
    # state inside b
    bad = Counterexample("lasso", cx.start, [], [("idle", 1)])
    assert not validate_counterexample(idle, bad, xs(idle, 1))
    # bogus edge label
    bad = Counterexample("lasso", cx.start, [], [("goal", 0)])
    assert not validate_counterexample(idle, bad, xs(idle, 1))
    # lasso that does not close (edges valid, avoid set empty)
    bad = Counterexample("lasso", cx.start, [("idle", 0)], [("goal", 1)],
                         assumption="mp")
    assert not validate_counterexample(idle, bad, idle.space.empty())
    # wf lasso missing a fairness witness
    bad = Counterexample("lasso", cx.start, [], [("idle", 0)], assumption="wf")
    assert not validate_counterexample(idle, bad, xs(idle, 1))
    # deadlock path ending where an event is enabled
    bad = Counterexample("deadlock-path", cx.start, assumption="mp")
    assert not validate_counterexample(idle, bad, xs(idle, 1))


def test_validator_rejects_states_and_events_outside_the_model():
    elab = load_file(os.path.join(DATA, "triangle3.evt"))
    sys_, space = elab.system, elab.system.space
    back = next(p for p in elab.properties if p.name == "back")
    ok, cx = oracle_wf(sys_, back.p, back.q)
    assert not ok and cx.kind == "deadlock-path" and cx.prefix
    assert validate_counterexample(sys_, cx, back.q)
    # index 4 is c0 = 0, c1 = 1: a hole of the invariant, outside every guard
    assert not space.full_mask >> 4 & 1 and space.raw_size == 64
    for start in (4, space.raw_size + 5, -1):
        bad = Counterexample("deadlock-path", start, assumption="wf")
        assert not validate_counterexample(sys_, bad, back.q)
    ghost = [("ghost", cx.prefix[0][1])] + cx.prefix[1:]
    bad = Counterexample("deadlock-path", cx.start, ghost, assumption="wf")
    assert not validate_counterexample(sys_, bad, back.q)


def _adjacency_from_rel(sys_, allowed):
    """``_edges_within`` read from the per-state relation: each allowed
    state's edges into ``allowed``, events in declaration order, each
    event's successors ascending."""
    states = [s for s in range(sys_.space.raw_size) if (allowed >> s) & 1]
    return [(s, [(e.name, t) for e in sys_.events for t in states if (e.rel.get(s, 0) >> t) & 1])
            for s in states]


# ``_LEVEL_COST`` values that send every list through one path: the byte
# tests per state, and the AND of each class with the list's mask
BYTES, MASKS = 0, 1 << 60


def _assert_edges_match_rel(sys_, allowed):
    expected = _adjacency_from_rel(sys_, allowed)
    states = [s for s, _ in expected]
    for cost in (BYTES, MASKS):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracle, "_LEVEL_COST", cost)
            edges = _edges_within(sys_, allowed)
            assert list(zip(states, edges(states))) == expected
            assert [(s, edges([s])[0]) for s in states] == expected
            assert edges(states[1::2]) == [listed for _, listed in expected[1::2]]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_edges_within_equal_the_relation(seed):
    """The oracle's edges, read off the offset classes that ``Event`` derives
    from a random ``rel`` (about a third of the universes with holes), are
    that ``rel``'s edges in the same order, inside random masks that may
    cover the holes too."""
    rng = random.Random(seed)
    sys_ = random_system(rng)
    raw = sys_.space.raw_size
    for allowed in [sys_.space.full_mask, 0] + [rng.getrandbits(raw) for _ in range(4)]:
        _assert_edges_match_rel(sys_, allowed)
    for e in sys_.events:
        assert [e.successors(s) for s in range(raw)] == [e.rel.get(s, 0) for s in range(raw)]


@pytest.mark.parametrize("model", sorted(n for n in os.listdir(DATA) if n.endswith(".evt")))
def test_edges_within_equal_the_relation_on_models(model):
    elab = load_file(os.path.join(DATA, model))
    sys_ = elab.system
    _assert_edges_match_rel(sys_, sys_.space.full_mask)
    for prop in elab.properties:
        _assert_edges_match_rel(sys_, prop.q.complement().mask)


def _avoiding_successors(sys_, b):
    universe = sys_.space.universe()
    return {
        s: {t for e in sys_.events for t in universe
            if (e.rel.get(s, 0) >> t) & 1 and t not in b}
        for s in universe if s not in b
    }


def _closure(succ, s):
    """States reachable from ``s`` in zero or more avoiding steps."""
    seen, todo = {s}, [s]
    while todo:
        for t in succ[todo.pop()]:
            if t not in seen:
                seen.add(t)
                todo.append(t)
    return seen


def _expected_knot(sys_, a, b, cx):
    """The state where a counterexample must start its deadlock or cycle:
    the smallest (BFS distance from a outside b, index) among the deadlocks,
    else among the cyclic states (mp) or the states of the knot's own
    component (wf); with that distance."""
    succ = _avoiding_successors(sys_, b)
    dist = {s: 0 for s in a if s not in b}
    level, d = set(dist), 0
    while level:
        d += 1
        level = {t for s in level for t in succ[s]} - dist.keys()
        dist.update(dict.fromkeys(level, d))
    candidates = [s for s in dist if s not in sys_.grd_all]
    if cx.kind == "lasso":
        assert not candidates  # a reachable deadlock is reported first
        knot = cx.prefix[-1][1] if cx.prefix else cx.start
        if cx.assumption == "mp":
            candidates = [s for s in dist if any(s in _closure(succ, t) for t in succ[s])]
        else:
            candidates = [s for s in _closure(succ, knot) if knot in _closure(succ, s)]
    best = min(candidates, key=lambda s: (dist[s], s))
    return best, dist[best]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_all_emitted_counterexamples_validate(seed):
    rng = random.Random(seed)
    sys_ = random_system(rng, max_states=8)
    for _ in range(5):
        a, b = random_set(rng, sys_.space), random_set(rng, sys_.space)
        for oracle in (oracle_mp, oracle_wf):
            ok, cx = oracle(sys_, a, b)
            if not ok:
                assert validate_counterexample(sys_, cx, b), ({e.name: e.rel for e in sys_.events}, cx)
                assert cx.start in a
                knot = cx.prefix[-1][1] if cx.prefix else cx.start
                assert (knot, len(cx.prefix)) == _expected_knot(sys_, a, b, cx)


def test_wf_strictly_weaker_than_mp_on_traces(idle):
    """The WF oracle accepts at least everything the MP oracle accepts."""
    rng = random.Random(11)
    for _ in range(200):
        sys_ = random_system(rng, max_states=6)
        a, b = random_set(rng, sys_.space), random_set(rng, sys_.space)
        if oracle_mp(sys_, a, b)[0]:
            assert oracle_wf(sys_, a, b)[0]


@st.composite
def _graphs(draw):
    """A labelled adjacency dict over ``0..n-1`` (parallel edges allowed)."""
    n = draw(st.integers(1, 8))
    edge = st.tuples(st.sampled_from(["e0", "e1", "e2"]), st.integers(0, n - 1))
    return {s: draw(st.lists(edge, max_size=4)) for s in range(n)}


@settings(max_examples=300, deadline=None)
@given(_graphs())
def test_shortest_cycle_matches_reference(adj):
    for node in adj:
        try:
            expected = reference_shortest_cycle(adj, node)
        except AssertionError:  # not on a cycle
            with pytest.raises(ValueError):
                _walk(adj, node, node.__eq__)
            continue
        assert _walk(adj, node, node.__eq__) == expected


def test_both_listings_search_the_same_graph():
    """A search whose every level is listed by byte tests and one whose every
    level is listed by masks reach the same states with the same edges,
    parents and depths, and give the same verdicts and counterexamples."""
    rng = random.Random(23)
    for _ in range(150):
        sys_ = random_system(rng, max_states=12)
        a, b = random_set(rng, sys_.space), random_set(rng, sys_.space)
        found = []
        for cost in (BYTES, MASKS):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(oracle, "_LEVEL_COST", cost)
                graph = SearchGraph(sys_, a, b).search()
                found.append((graph.states, graph.edges, graph.parent, graph.depth,
                              oracle_mp(sys_, a, b), oracle_wf(sys_, a, b)))
        assert found[0] == found[1]


def _claims_of(path, unbounded=True):
    """Each claim of the model at ``path`` as ``explain`` resolves it and,
    when ``unbounded``, each one's ``a`` against the empty set."""
    elab = load_file(path)
    sys_ = elab.system
    claims = []
    for prop in elab.properties:
        claim = resolve(elab, prop)
        claims.append((claim.a, claim.b))
        if unbounded:
            claims.append((claim.a, sys_.space.empty()))
    return sys_, claims


def _bench_model_paths(tmp_path_factory):
    models = perfbench_models()
    folder = tmp_path_factory.mktemp("families")
    paths = []
    for n in range(3, 7):
        for starve in (False, True):
            model = models.ring(n, 1, starve=starve, assume=("wf", "mp"))
            path = folder / f"{model.name}.evt"
            path.write_text(model.text)
            paths.append(str(path))
    return paths


def _random_claims(seed):
    rng = random.Random(seed)
    sys_ = random_system(rng, max_states=14)
    return sys_, [(random_set(rng, sys_.space), random_set(rng, sys_.space)) for _ in range(3)]


def _distances(adj, inside, u):
    """BFS distances from ``u`` over edges into ``inside``."""
    dist, level = {u: 0}, [u]
    while level:
        reached = []
        for s in level:
            for _, t in adj[s]:
                if t in inside and t not in dist:
                    dist[t] = dist[s] + 1
                    reached.append(t)
        level = reached
    return dist


def _check_components_and_tours(sys_, a, b, no_longer=True):
    """``_sccs`` lists the reference's components in the same order; every
    fair component's justice walk is closed at its anchor, takes each witness
    edge at its index and validates as a wf lasso.  After its witness legs,
    each event in declaration order that is still enabled at every state of
    the walk gets a leg that is a shortest walk to a nearest state of the
    component where it is disabled, and the last leg is a shortest walk back
    to the anchor.  With ``no_longer``, the walk is no longer than the
    reference tour.  Returns the number of walks checked."""
    graph = SearchGraph(sys_, a, b).search()
    states, depth, adj = graph.states, graph.depth, graph.edges
    by_state = {states[i]: [(ev, states[j]) for ev, j in adj[i]] for i in range(len(states))}
    sccs = graph.sccs()
    assert [[states[v] for v in comp] for comp in sccs] == reference_sccs(by_state)
    walks = 0
    for comp in sccs:
        inside = set(comp)
        internal = [(s, ev, t) for s in comp for ev, t in adj[s] if t in inside]
        if not internal:
            continue
        fair, witness_edges = _fair_component(sys_, [states[v] for v in comp], internal)
        # each event enabled on the whole component, with its first internal edge
        always = [e.name for e in sys_.events if all(states[v] in e.guard for v in comp)]
        first = {name: next(((s, t) for s, ev, t in internal if ev == name), None) for name in always}
        assert fair == (None not in first.values())
        if not fair:
            continue
        assert witness_edges == first
        anchor = min(comp, key=lambda v: (depth[v], states[v]))
        cycle, witness = _fair_cycle(sys_, graph, inside.__contains__, anchor, witness_edges)
        assert cycle and cycle[-1][1] == anchor
        assert {v for _, v in cycle} <= inside
        assert sorted(witness) == sorted(witness_edges)
        for name, idx in witness.items():
            before = cycle[idx - 1][1] if idx else anchor
            assert (before, cycle[idx]) == (witness_edges[name][0], (name, witness_edges[name][1]))
        legs_from = max(witness.values(), default=-1) + 1
        on_walk = {anchor} | {v for _, v in cycle[:legs_from]}
        start = cycle[legs_from - 1][1] if legs_from else anchor
        for e in sys_.events:
            if e.name in witness_edges or not all(states[v] in e.guard for v in on_walk):
                continue
            end = next(k for k in range(legs_from, len(cycle)) if states[cycle[k][1]] not in e.guard)
            dist = _distances(adj, inside, start)
            assert end + 1 - legs_from == min(d for t, d in dist.items() if states[t] not in e.guard)
            on_walk.update(v for _, v in cycle[legs_from:end + 1])
            start, legs_from = cycle[end][1], end + 1
        assert len(cycle) - legs_from == _distances(adj, inside, start)[anchor]
        root, prefix = _path_from_root(graph.parent, anchor)
        cx = Counterexample("lasso", states[root], graph.named(prefix), graph.named(cycle),
                            witness, assumption="wf")
        assert validate_counterexample(sys_, cx, b)
        if no_longer:
            tour, tour_witness = reference_fair_tour(adj, inside.__contains__, len(comp), anchor,
                                                     witness_edges)
            assert tour_witness == witness
            assert len(cycle) <= len(tour)
        walks += 1
    return walks


@pytest.mark.parametrize("seed", range(40))
def test_components_and_tours_match_the_references_on_random_systems(seed):
    # the justice legs go in declaration order, not nearest first, so on a
    # component of three to five states the walk can be one or two steps
    # longer than the tour (20 of 5856 fair components of 3000 random
    # systems, 2684 shorter), and ``no_longer`` is not asked here
    for trial in range(10):
        sys_, claims = _random_claims(seed * 10 + trial)
        for a, b in claims:
            _check_components_and_tours(sys_, a, b, no_longer=False)


@pytest.mark.parametrize("model", sorted(n for n in os.listdir(DATA) if n.endswith(".evt")))
def test_components_and_tours_match_the_references_on_models(model):
    sys_, claims = _claims_of(os.path.join(DATA, model))
    for a, b in claims:
        _check_components_and_tours(sys_, a, b)


def test_components_and_tours_match_the_references_on_the_families(tmp_path_factory):
    tours = 0
    for path in _bench_model_paths(tmp_path_factory):
        sys_, claims = _claims_of(path, unbounded=False)
        for a, b in claims:
            tours += _check_components_and_tours(sys_, a, b)
    assert tours


def _without_justice_legs(graph, inside, anchor, witness_edges):
    """The fair walk with its disabled-state legs left out: the legs to the
    witness edges, then a shortest walk back to ``anchor``."""
    adj, cycle, cur = graph.edges, [], anchor
    for name in sorted(witness_edges):
        s, t = witness_edges[name]
        if s != cur:
            cycle += _walk(adj, cur, s.__eq__, inside)
        cycle.append((name, t))
        cur = t
    if cur != anchor or not cycle:
        cycle += _walk(adj, cur, anchor.__eq__, inside)
    return cycle


@pytest.mark.parametrize("model", ["starve3", "starve4"])
def test_a_walk_without_its_disabled_state_legs_is_rejected(tmp_path, model):
    """On the starving rings, each wf lasso validates, and the same lasso
    with its cycle rebuilt without the legs to disabled states does not: it
    still closes, but some event stays enabled all along it and is never
    taken."""
    path = os.path.join(DATA, "starve3.evt")
    if model == "starve4":
        path = tmp_path / "starve4.evt"
        path.write_text(perfbench_models().ring(4, 1, starve=True, assume=("wf", "mp")).text)
    sys_, claims = _claims_of(str(path), unbounded=False)
    lassos = 0
    for a, b in claims:
        graph = SearchGraph(sys_, a, b)
        ok, cx = oracle_wf(sys_, a, b, graph)
        if ok or cx.kind != "lasso":
            continue
        assert validate_counterexample(sys_, cx, b)
        anchor = graph.states.index(cx.prefix[-1][1] if cx.prefix else cx.start)
        comp = next(c for c in graph.sccs() if anchor in c)
        internal = [(s, ev, t) for s in comp for ev, t in graph.edges[s] if t in comp]
        witness_edges = _fair_component(sys_, [graph.states[v] for v in comp], internal)[1]
        cycle = _without_justice_legs(graph, set(comp).__contains__, anchor, witness_edges)
        for assumption in ("mp", "wf"):  # a closed walk, but not a fair one
            bare = Counterexample("lasso", cx.start, cx.prefix, graph.named(cycle),
                                  cx.fairness_witness, assumption=assumption)
            assert validate_counterexample(sys_, bare, b) == (assumption == "mp")
        lassos += 1
    assert lassos
