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


def _edges_within(sys: EventSystem, allowed: int) -> dict[int, list[tuple[str, int]]]:
    """Adjacency (event label, successor) among the ``allowed`` states, read
    off each event's offset classes: a state's edges list the events in
    declaration order and each event's successors ascending."""
    adj: dict[int, list[tuple[str, int]]] = {s: [] for s in bit_positions(allowed)}
    for e in sys.events:
        for d, src in e.classes():  # sorted by d
            targets = allowed >> d if d >= 0 else allowed << -d
            for s in bit_positions(src & allowed & targets):
                adj[s].append((e.name, s + d))
    return adj


def _bfs_tree(adj, sources):
    """Parent pointers (pred state, event) and BFS distances for nodes
    reachable from sources."""
    parent: dict[int, tuple[int, str] | None] = {}
    depth: dict[int, int] = {}
    dq = deque()
    for s in sources:
        if s in adj and s not in parent:
            parent[s] = None
            depth[s] = 0
            dq.append(s)
    while dq:
        s = dq.popleft()
        for ev, t in adj[s]:
            if t not in parent:
                parent[t] = (s, ev)
                depth[t] = depth[s] + 1
                dq.append(t)
    return parent, depth


def _path_from_root(parent, node) -> tuple[int, list[tuple[str, int]]]:
    steps: list[tuple[str, int]] = []
    cur = node
    while parent[cur] is not None:
        prev, ev = parent[cur]
        steps.append((ev, cur))
        cur = prev
    steps.reverse()
    return cur, steps


def _shortest_cycle_through(adj, node) -> list[tuple[str, int]]:
    """Shortest closed walk from ``node`` back to itself: the BFS tree path to
    the first state, in BFS order, with an edge back to ``node``."""
    parent, _ = _bfs_tree(adj, [node])
    for s in parent:  # insertion order is BFS order
        for ev, t in adj[s]:
            if t == node:
                return _path_from_root(parent, s)[1] + [(ev, node)]
    raise ValueError(f"state {node} is not on a cycle")


def _sccs(adj) -> list[list[int]]:
    """Tarjan's algorithm, iterative, deterministic in ascending node order."""
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


def oracle_reachable(sys: EventSystem, start: StateSet) -> StateSet:
    """Forward reachability closure by breadth-first search."""
    parent, _ = _bfs_tree(_edges_within(sys, sys.space.full_mask), start)
    return sys.space.from_indices(parent)


def _oracle(sys: EventSystem, a: StateSet, b: StateSet, assumption: str, find_trap):
    """Search the avoid-subgraph reachable from ``a`` outside ``b`` for a
    deadlock, then for a trap cycle found by ``find_trap(sys, adj, nearest)``,
    which returns ``(anchor, cycle, fairness witness)`` or None."""
    avoid = b.complement().mask
    sources = [s for s in a if (avoid >> s) & 1]
    if not sources:
        return True, None
    adj = _edges_within(sys, avoid)
    parent, depth = _bfs_tree(adj, sources)

    def nearest(nodes):
        # (depth, index) order keeps counterexamples short and deterministic
        return min(nodes, key=lambda s: (depth[s], s))

    deadlocks = [s for s in parent if (sys.grd_all.mask >> s) & 1 == 0]
    if deadlocks:
        start, prefix = _path_from_root(parent, nearest(deadlocks))
        return False, Counterexample("deadlock-path", start, prefix, assumption=assumption)
    trap = find_trap(sys, {s: adj[s] for s in parent}, nearest)
    if trap is None:
        return True, None
    anchor, cycle, witness = trap
    start, prefix = _path_from_root(parent, anchor)
    return False, Counterexample("lasso", start, prefix, cycle, witness, assumption=assumption)


def oracle_mp(
    sys: EventSystem, a: StateSet, b: StateSet
) -> tuple[bool, Counterexample | None]:
    """Trace verdict under minimal progress.

    Fails iff from some start in ``a`` there is a maximal run avoiding ``b``:
    any reachable deadlock or any reachable cycle of the avoid-subgraph.
    """
    return _oracle(sys, a, b, "mp", _mp_trap)


def _mp_trap(sys, adj, nearest):
    cyclic = set()
    for comp in _sccs(adj):
        comp_set = set(comp)
        if any(t in comp_set for s in comp for _, t in adj[s]):
            cyclic.update(comp)
    if not cyclic:
        return None
    anchor = nearest(cyclic)
    return anchor, _shortest_cycle_through(adj, anchor), {}


def oracle_wf(
    sys: EventSystem, a: StateSet, b: StateSet
) -> tuple[bool, Counterexample | None]:
    """Trace verdict under weak fairness.

    Fails iff from some start in ``a`` the avoid-subgraph reaches a deadlock,
    or a strongly connected component with an internal edge in which every
    event enabled at all of its states can also be taken inside it.
    """
    return _oracle(sys, a, b, "wf", _wf_trap)


def _wf_trap(sys, adj, nearest):
    for comp in _sccs(adj):
        comp_set = set(comp)
        internal_edges = [
            (s, ev, t) for s in comp for ev, t in adj[s] if t in comp_set
        ]
        if not internal_edges:
            continue
        fair, witness_edges = _fair_component(sys, comp_set, internal_edges)
        if not fair:
            continue
        anchor = nearest(comp_set)
        return (anchor, *_fair_cycle(adj, comp_set, anchor, witness_edges))
    return None


def _fair_component(sys, comp_set, internal_edges):
    """A component is a fair trap iff every event enabled on all of it has an
    internal edge; returns one such edge per always-enabled event."""
    comp_mask = _mask_of(comp_set, sys.space.raw_size)
    witness_edges = {}
    for e in sys.events:
        if comp_mask & ~e.guard.mask == 0:  # enabled at every state of the component
            edge = next(
                ((s, t) for s, ev, t in internal_edges if ev == e.name), None
            )
            if edge is None:
                return False, {}
            witness_edges[e.name] = edge
    return True, witness_edges


def _fair_cycle(adj, comp_set, anchor, witness_edges):
    """A closed walk from ``anchor`` visiting every component state and taking
    every witness edge; the full tour makes 'continuously enabled along the
    cycle' coincide with 'enabled on the whole component'."""
    comp_adj = {
        s: [(ev, t) for ev, t in adj[s] if t in comp_set] for s in comp_set
    }

    def path(u, v) -> list[tuple[str, int]]:
        if u == v:
            return []
        parent, _ = _bfs_tree(comp_adj, [u])
        _, steps = _path_from_root(parent, v)
        return steps

    cycle: list[tuple[str, int]] = []
    cur = anchor
    witness: dict[str, int] = {}
    for name in sorted(witness_edges):
        s, t = witness_edges[name]
        cycle += path(cur, s)
        witness[name] = len(cycle)
        cycle.append((name, t))
        cur = t
    for w in sorted(comp_set):
        if w != cur:
            cycle += path(cur, w)
            cur = w
    cycle += path(cur, anchor)
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
    events = {e.name: e for e in sys.events}
    cur = cx.start
    for ev, t in cx.prefix + cx.cycle:
        e = events.get(ev)
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
