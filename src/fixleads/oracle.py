"""Trace-semantics decision procedure for leads-to, independent of fixpoints.

Works directly on the labeled transition graph.  A leads-to from ``a`` to
``b`` fails exactly when some state of ``a`` starts a maximal run that never
enters ``b``: a reachable deadlock in the complement of ``b``, or (under
minimal progress) any reachable cycle there, or (under weak fairness) a
reachable strongly connected component every always-enabled event of which
can be taken inside the component.
"""
from __future__ import annotations

from collections import deque
from collections.abc import Callable

from .events import EventSystem
from .records import Record
from .states import StateSet, _mask_of, bit_positions


class Counterexample(Record):
    __slots__ = ("kind", "start", "prefix", "cycle", "fairness_witness", "assumption")

    def __init__(self, kind: str, start: int, prefix: list[tuple[str, int]] | None = None,
                 cycle: list[tuple[str, int]] | None = None,
                 fairness_witness: dict[str, int] | None = None, assumption: str = "mp"):
        self.kind = kind  # 'deadlock-path' | 'lasso'
        self.start = start
        self.prefix = [] if prefix is None else prefix
        self.cycle = [] if cycle is None else cycle
        self.fairness_witness = {} if fairness_witness is None else fairness_witness
        self.assumption = assumption  # lassos need fairness witnesses only under 'wf'

    def states(self) -> list[int]:
        out = [self.start]
        out += [s for _, s in self.prefix]
        out += [s for _, s in self.cycle]
        return out

    def to_json(self, space) -> dict:
        st = space.state_of
        out = {
            "kind": self.kind,
            "assumption": self.assumption,
            "start": st(self.start),
            "prefix": [{"event": e, "state": st(s)} for e, s in self.prefix],
        }
        if self.kind == "lasso":
            out["cycle"] = [{"event": e, "state": st(s)} for e, s in self.cycle]
            out["fairness_witness"] = dict(self.fairness_witness)
        return out


_LEVEL_COST = 128  # one byte test costs about as much as 128 bits of a full-width AND and scan


def _edges_within(sys: EventSystem, allowed: int) -> Callable[[list[int]], list[list[tuple[str, int]]]]:
    """The function listing, for each state of a list, its edges (event
    label, successor) into the ``allowed`` states: events in declaration
    order, each event's successors ascending.  Each offset class keeps its
    sources whose target is allowed, as an int and as bytes: a long list
    takes one AND of each class with the list's mask and one scan, and a
    short one a byte test per event and class for each state."""
    width = sys.space.raw_size
    size = (width + 7) >> 3
    events, rows = [], 0
    for e in sys.events:
        classes, sources = [], 0
        for d, src in e.classes():  # sorted by d
            if keep := src & allowed & (allowed >> d if d >= 0 else allowed << -d):
                classes.append((d, keep, keep.to_bytes(size, "little")))
                sources |= keep
        if classes:
            events.append((e.name, sources.to_bytes(size, "little"), classes))
            rows += len(classes)

    def edges(states: list[int]) -> list[list[tuple[str, int]]]:
        if len(states) * len(events) * _LEVEL_COST > rows * width:
            out: dict[int, list[tuple[str, int]]] = {s: [] for s in states}
            mask = _mask_of(states, width)
            for name, _, classes in events:
                for d, keep, _ in classes:
                    for s in bit_positions(keep & mask):
                        out[s].append((name, s + d))
            return list(out.values())
        return [[(name, s + d) for name, sources, classes in events if sources[s >> 3] >> (s & 7) & 1
                 for d, _, keep in classes if keep[s >> 3] >> (s & 7) & 1] for s in states]
    return edges


class SearchGraph:
    """The avoid-graph of a claim ``a ↦ b`` as far as runs from ``a`` reach
    it before ``b``, found when it is built by one breadth-first search that
    lists a state's edges only when it first reaches the state, one level at
    a time.  ``states`` holds them in BFS order, and each is named by its
    position there: ``edges`` (event, position), ``parent`` (position,
    event) and ``depth``.  ``oracle_mp`` and ``oracle_wf`` of one ``a`` and
    ``b`` may share a graph, and so its deadlocks and components; each
    semantics' answer is kept in ``answers``, so a question asked again is
    answered once."""

    def __init__(self, sys: EventSystem, a: StateSet, b: StateSet):
        self.sys, self.a, self.b = sys, a, b
        self._sccs: list[list[int]] | None = None
        self.answers: dict[str, tuple[bool, Counterexample | None]] = {}
        allowed = b.complement().mask
        edges_of = _edges_within(sys, allowed)
        states = list(bit_positions(a.mask & allowed))
        pos = {s: i for i, s in enumerate(states)}
        parent: list[tuple[int, str] | None] = [None] * len(states)
        depth, edges = [0] * len(states), []
        while len(edges) < len(states):  # the last level reached
            for i, listed in enumerate(edges_of(states[len(edges):]), len(edges)):
                for k, (ev, t) in enumerate(listed):  # successors to positions, in place
                    j = pos.get(t)
                    if j is None:
                        j = pos[t] = len(states)
                        states.append(t)
                        parent.append((i, ev))
                        depth.append(depth[i] + 1)
                    listed[k] = (ev, j)
                edges.append(listed)
        dead = _mask_of(states, sys.space.raw_size) & ~sys.grd_all.mask
        self.deadlocks = [pos[s] for s in bit_positions(dead)]
        self.states, self.parent, self.depth, self.edges = states, parent, depth, edges

    def sccs(self) -> list[list[int]]:
        if self._sccs is None:
            self._sccs = _sccs(self.edges, self.states.__getitem__)
        return self._sccs

    def named(self, steps: list[tuple[str, int]]) -> list[tuple[str, int]]:
        return [(ev, self.states[v]) for ev, v in steps]


def _path_from_root(parent, node) -> tuple[int, list[tuple[str, int]]]:
    steps: list[tuple[str, int]] = []
    cur = node
    while parent[cur] is not None:
        prev, ev = parent[cur]
        steps.append((ev, cur))
        cur = prev
    steps.reverse()
    return cur, steps


def _walk(adj, u, done, inside=None) -> list[tuple[str, int]]:
    """A shortest walk of one or more steps from ``u`` to a state ``done``
    accepts, over edges into the states ``inside`` accepts (every state when
    None): the BFS tree path to the first state, in BFS order, with an edge
    to such a state, then that edge."""
    parent = {u: None}
    queue = deque([u])
    while queue:
        s = queue.popleft()
        for ev, t in adj[s]:
            if done(t):
                return _path_from_root(parent, s)[1] + [(ev, t)]
            if t not in parent and (inside is None or inside(t)):
                parent[t] = (s, ev)
                queue.append(t)
    raise ValueError(f"no walk from state {u} to an accepted state")


def _sccs(adj, key=None) -> list[list[int]]:
    """Tarjan's algorithm, iterative, on arrays indexed by node: the nodes are
    ``0 .. len(adj) - 1`` and ``adj[v]`` lists ``v``'s edges ``(label,
    node)``; roots go in ascending ``key`` order and each component is
    sorted by ``key``.  A node's index becomes ``len(adj)`` once its
    component is out, so only the nodes still on the stack lower a ``low``."""
    n = len(adj)
    index, low = [-1] * n, [0] * n
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0
    for root in sorted(range(n), key=key):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(adj[root]))]
        while work:
            node, edges = work[-1]
            for _, t in edges:
                if index[t] < 0:
                    index[t] = low[t] = counter
                    counter += 1
                    stack.append(t)
                    work.append((t, iter(adj[t])))
                    break
                if index[t] < low[node]:
                    low[node] = index[t]
            else:
                work.pop()
                if low[node] == index[node]:
                    comp = [stack.pop()]
                    while comp[-1] != node:
                        comp.append(stack.pop())
                    for w in comp:
                        index[w] = n
                    sccs.append(sorted(comp, key=key))
                if work and low[node] < low[work[-1][0]]:
                    low[work[-1][0]] = low[node]
    return sccs


def oracle_reachable(sys: EventSystem, start: StateSet) -> StateSet:
    """Forward reachability closure by breadth-first search."""
    return sys.space.from_indices(SearchGraph(sys, start, sys.space.empty()).states)


def _oracle(sys: EventSystem, a: StateSet, b: StateSet, assumption: str, find_trap,
            graph: SearchGraph | None):
    """Search the avoid-subgraph reachable from ``a`` outside ``b`` for a
    deadlock, then for a trap cycle found by ``find_trap(sys, graph,
    nearest)``, which returns ``(anchor, cycle, fairness witness)`` in
    positions, or None; the answer is kept on the graph."""
    if graph is None:
        graph = SearchGraph(sys, a, b)
    elif graph.sys is not sys or (graph.a.mask, graph.b.mask) != (a.mask, b.mask):
        raise ValueError("the search graph is of another claim")
    if assumption not in graph.answers:
        graph.answers[assumption] = _answer(sys, graph, assumption, find_trap)
    return graph.answers[assumption]


def _answer(sys, graph, assumption, find_trap):
    states, depth = graph.states, graph.depth

    def nearest(nodes):
        # (depth, index) order keeps counterexamples short and deterministic
        return min(nodes, key=lambda v: (depth[v], states[v]))

    if graph.deadlocks:
        start, prefix = _path_from_root(graph.parent, nearest(graph.deadlocks))
        return False, Counterexample("deadlock-path", states[start], graph.named(prefix),
                                     assumption=assumption)
    trap = find_trap(sys, graph, nearest)
    if trap is None:
        return True, None
    anchor, cycle, witness = trap
    start, prefix = _path_from_root(graph.parent, anchor)
    return False, Counterexample("lasso", states[start], graph.named(prefix), graph.named(cycle),
                                 witness, assumption=assumption)


def oracle_mp(
    sys: EventSystem, a: StateSet, b: StateSet, graph: SearchGraph | None = None
) -> tuple[bool, Counterexample | None]:
    """Trace verdict under minimal progress.

    Fails iff from some start in ``a`` there is a maximal run avoiding ``b``:
    any reachable deadlock or any reachable cycle of the avoid-subgraph.
    """
    return _oracle(sys, a, b, "mp", _mp_trap, graph)


def _mp_trap(sys, graph, nearest):
    adj = graph.edges
    cyclic = [v for comp in graph.sccs() if comp[1:] or comp[0] in [t for _, t in adj[comp[0]]]
              for v in comp]
    if not cyclic:
        return None
    anchor = nearest(cyclic)
    return anchor, _walk(adj, anchor, anchor.__eq__), {}  # a shortest cycle


def oracle_wf(
    sys: EventSystem, a: StateSet, b: StateSet, graph: SearchGraph | None = None
) -> tuple[bool, Counterexample | None]:
    """Trace verdict under weak fairness.

    Fails iff from some start in ``a`` the avoid-subgraph reaches a deadlock,
    or a strongly connected component with an internal edge in which every
    event enabled at all of its states can also be taken inside it.
    """
    return _oracle(sys, a, b, "wf", _wf_trap, graph)


def _wf_trap(sys, graph, nearest):
    adj = graph.edges
    for comp in graph.sccs():
        inside = set(comp).__contains__
        internal_edges = [(s, ev, t) for s in comp for ev, t in adj[s] if inside(t)]
        if not internal_edges:
            continue
        fair, witness_edges = _fair_component(sys, [graph.states[v] for v in comp], internal_edges)
        if fair:
            anchor = nearest(comp)
            return (anchor, *_fair_cycle(sys, graph, inside, anchor, witness_edges))
    return None


def _fair_component(sys, comp_states, internal_edges):
    """A component is a fair trap iff every event enabled on all of it has an
    internal edge; returns one such edge per always-enabled event."""
    comp_mask = _mask_of(comp_states, sys.space.raw_size)
    first: dict[str, tuple[int, int]] = {}
    for s, ev, t in internal_edges:
        first.setdefault(ev, (s, t))
    # the events enabled at every state of the component
    always = [e.name for e in sys.events if comp_mask & ~e.guard.mask == 0]
    if any(name not in first for name in always):
        return False, {}
    return True, {name: first[name] for name in always}


def _fair_cycle(sys, graph, inside, anchor, witness_edges):
    """A closed walk from ``anchor`` over edges into the positions that
    ``inside`` accepts, on which every event is treated justly: a BFS leg to
    each witness edge in event-name order; then, for each other event in
    declaration order that is still enabled at every state of the walk, a
    BFS leg to a nearest state where it is disabled; then a shortest walk
    back to ``anchor`` (a shortest cycle through it if the walk is still
    empty).  Adding states never re-enables an event, so one pass is enough."""
    adj, states = graph.edges, graph.states
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
    walk_mask = _mask_of([states[v] for v in (anchor, *(v for _, v in cycle))], sys.space.raw_size)
    for e in sys.events:
        guard = e.guard.mask
        if e.name in witness_edges or walk_mask & ~guard:
            continue
        leg = _walk(adj, cur, lambda v: inside(v) and not guard >> states[v] & 1, inside)
        for _, v in leg:
            walk_mask |= 1 << states[v]
        cycle += leg
        cur = leg[-1][1]
    if cur != anchor or not cycle:
        cycle += _walk(adj, cur, anchor.__eq__, inside)
    return cycle, witness


def validate_counterexample(
    sys: EventSystem, cx: Counterexample, b: StateSet
) -> bool:
    """Re-check a counterexample against its own structural invariants: every
    state lies in the universe and outside ``b``, and every step is an edge of
    a declared event."""
    states = cx.states()
    full = sys.space.full_mask
    if any(s < 0 or not full >> s & 1 or s in b for s in states):
        return False
    cur = cx.start
    for ev, t in cx.prefix + cx.cycle:
        e = sys.by_name.get(ev)
        if e is None or (e.successors(cur) >> t) & 1 == 0:
            return False
        cur = t
    if cx.kind == "deadlock-path":
        last = states[-1]
        return last not in sys.grd_all
    if cx.kind == "lasso":
        if not cx.cycle:
            return False
        knot = cx.prefix[-1][1] if cx.prefix else cx.start
        if cx.cycle[-1][1] != knot:
            return False
        if cx.assumption == "wf":
            cycle_states = {knot} | {s for _, s in cx.cycle}
            for e in sys.events:
                if all(s in e.guard for s in cycle_states):
                    idx = cx.fairness_witness.get(e.name)
                    if idx is None or not (0 <= idx < len(cx.cycle)):
                        return False
                    if cx.cycle[idx][0] != e.name:
                        return False
        return True
    return False
