"""Derivation certificates for leads-to verdicts and their checker.

A certificate is a tree over three rules: a basic leaf (one ensures step),
transitivity, and disjunction.  Leaves are re-checked definitionally, so a
certificate is evidence independent of the fixpoint computation that
produced it.  Sets are stored explicitly, each state as its index in the
model's declarations, which keeps checking bit-exact and independent of any
source syntax.
"""
from __future__ import annotations

from collections.abc import Callable

from .events import EventSystem, IterateTrace
from .mp import ensures_mp
from .records import Frozen, setfield
from .states import SpaceError, StateSet, StateSpace, set_table
from .wf import ensures_wf

SCHEMA_VERSION = 4  # one interned set table of state indices and delta entries
READ_SCHEMAS = (2, 3, 4)  # 3: the same table in rows of values; 2: no delta entries


class CertificateError(Exception):
    """Certificate cannot be derived (claim not inside the fixpoint), or a
    certificate document is malformed."""


class Basic(Frozen):
    """One ensures step: p leads to q by a single fair/minimal-progress step."""

    __slots__ = ("p", "q", "assumption", "helpful")

    def __init__(self, p: StateSet, q: StateSet, assumption: str, helpful: str | None = None):
        setfield(self, "p", p)
        setfield(self, "q", q)
        setfield(self, "assumption", assumption)  # 'mp' | 'wf'
        setfield(self, "helpful", helpful)  # event name, wf only


class Trans(Frozen):
    __slots__ = ("left", "right")

    def __init__(self, left: "Certificate", right: "Certificate"):
        setfield(self, "left", left)
        setfield(self, "right", right)


class Disj(Frozen):
    __slots__ = ("parts", "q")

    def __init__(self, parts: tuple["Certificate", ...], q: StateSet):
        setfield(self, "parts", parts)
        setfield(self, "q", q)


Certificate = Basic | Trans | Disj


def _leaf_ok(sys: EventSystem, leaf: Basic) -> bool:
    if leaf.assumption == "mp":
        return ensures_mp(sys, leaf.p, leaf.q).holds
    g = sys.by_name.get(leaf.helpful)  # None for no event, and for no helpful event
    return leaf.assumption == "wf" and g is not None and ensures_wf(sys, g, leaf.p, leaf.q).holds


def check_certificate(
    sys: EventSystem,
    cert: Certificate,
    claimed: tuple[StateSet, StateSet],
    assumption: str,
) -> bool:
    """True iff every leaf passes its ensures check, internal nodes compose,
    and the root concludes the claim (root p may exceed the claimed a)."""
    a, b = claimed
    concluded = _checked_conclusion(sys, cert, assumption)
    return concluded is not None and a.is_subset(concluded[0]) and concluded[1].mask == b.mask


def _checked_conclusion(sys, cert, assumption) -> tuple[StateSet, StateSet] | None:
    """The ``(p, q)`` pair ``cert`` concludes if every node of it checks, else
    None."""
    if isinstance(cert, Basic):
        ok = cert.assumption == assumption and _leaf_ok(sys, cert)
        return (cert.p, cert.q) if ok else None
    if isinstance(cert, Trans):
        left = _checked_conclusion(sys, cert.left, assumption)
        if left is None:
            return None
        right = _checked_conclusion(sys, cert.right, assumption)
        if right is None or left[1].mask != right[0].mask:
            return None
        return left[0], right[1]
    if isinstance(cert, Disj):
        if not cert.parts:
            return None
        p = cert.q.space.empty()
        for part in cert.parts:
            concluded = _checked_conclusion(sys, part, assumption)
            if concluded is None or concluded[1].mask != cert.q.mask:
                return None
            p = p | concluded[0]
        return p, cert.q
    return None


def _chain(links: list[Certificate]) -> Certificate:
    """``links[0] ; ... ; links[-1]`` as a balanced ``Trans`` tree: the rule is
    associative, so the leaves keep their order and the depth is logarithmic."""
    if len(links) == 1:
        return links[0]
    mid = len(links) // 2
    return Trans(_chain(links[:mid]), _chain(links[mid:]))


def _layers(trace: IterateTrace) -> list[StateSet]:
    steps = list(trace.steps)
    while len(steps) >= 2 and steps[-1].mask == steps[-2].mask:
        steps.pop()
    return steps  # [∅, b, ..., fixpoint], strictly increasing


def _derive(
    a: StateSet, b: StateSet, trace: IterateTrace, assumption: str, helpful: str | None,
    layer_node: Callable[[StateSet, StateSet, int], Certificate],
) -> Certificate:
    """The chain ``a -> fix = r_K -> r_{K-1} -> ... -> r_1 = b`` down the
    iterate trace, where ``layer_node(r_k, r_{k-1}, k - 1)`` proves each layer
    step (``k - 1`` is the index of ``r_{k-1}`` in ``trace.steps``)."""
    layers = _layers(trace)
    fix = layers[-1]
    if not a.is_subset(fix):
        raise CertificateError("claimed start set is not inside the fixpoint")
    if a.is_subset(b):
        return Basic(a, b, assumption, helpful)
    links: list[Certificate] = [Basic(a, fix, assumption, helpful)]
    for k in range(len(layers) - 1, 1, -1):
        links.append(layer_node(layers[k], layers[k - 1], k - 1))
    return _chain(links)


def derive_certificate_mp(
    sys: EventSystem, a: StateSet, b: StateSet, trace: IterateTrace
) -> Certificate:
    """Chain certificate read off the iterate trace of the MP leads-to check."""
    return _derive(a, b, trace, "mp", None, lambda layer, below, _: Basic(layer, below, "mp"))


def derive_certificate_wf(
    sys: EventSystem, a: StateSet, b: StateSet, trace: IterateTrace, fair_deltas: tuple
) -> Certificate:
    """Layered certificate for the WF leads-to check, read off the verdict of
    ``leadsto_wf``: its ``trace`` and its ``fair_deltas``.  Each layer is the
    disjunction of ``Basic(below, below)`` and, for each event ``g`` whose
    fair loop adds states to the layer below, a lean leaf
    ``Basic(fair_loop_g - below, below, helpful=g)``.  It holds because the
    loop contains ``below``: ``ensures_wf`` reads only ``p - q`` and
    ``AX(p ∪ q)``, which are the same for the loop and for the lean ``p``."""
    first = sys.events[0].name

    def layer_node(layer: StateSet, below: StateSet, k: int) -> Certificate:
        parts: list[Certificate] = [Basic(below, below, "wf", helpful=first)]
        concluded = below.mask  # the disjunction's p: the union of its parts' p
        for name, added in fair_deltas[k]:
            parts.append(Basic(added, below, "wf", helpful=name))
            concluded |= added.mask
        # the layer is exactly target ∪ fair steps, so conclusions match
        if concluded != layer.mask:
            raise CertificateError("iterate trace does not reconstruct from the fair deltas")
        return Disj(tuple(parts), below)

    return _derive(a, b, trace, "wf", first, layer_node)


# --- JSON round trip -------------------------------------------------------
#
# A document stores each distinct set once, in ``sets``, as
# ``states.set_table`` writes it; ``claimed`` and the tree's ``p``/``q``
# fields are indices into it.  A set lists its states' indices, ascending:
# the mixed-radix index over ``vars``, which the model's declarations fix.
# Sets are met a, b, then the tree in pre-order.  Each layer of a chain
# contains the layer below it, which is smaller, so it costs at most its new
# states.  Schemas 2 and 3 wrote each state as its row of values in ``vars``
# order, under ``rows`` in a delta entry.


def cert_to_json(cert: Certificate, claimed: tuple[StateSet, StateSet]) -> dict:
    """The schema-4 document for ``cert`` proving ``claimed = (a, b)``."""
    a, b = claimed

    def node(c: Certificate) -> dict:
        if isinstance(c, Basic):
            out = {"rule": "SBR", "p": c.p, "q": c.q, "assumption": c.assumption}
            if c.helpful is not None:
                out["helpful"] = c.helpful
            return out
        if isinstance(c, Trans):
            return {"rule": "STR", "left": node(c.left), "right": node(c.right)}
        if isinstance(c, Disj):
            return {"rule": "SDR", "q": c.q, "parts": [node(p) for p in c.parts]}
        raise TypeError(f"bad certificate node {c!r}")

    sets, doc = set_table({"claimed": {"a": a, "b": b}, "certificate": node(cert)})
    return {"schema": SCHEMA_VERSION, "vars": [v.name for v in a.space.vars], "sets": sets, **doc}


def cert_from_json(
    space: StateSpace, data: dict
) -> tuple[Certificate, tuple[StateSet, StateSet]]:
    """The certificate and the claim ``(a, b)`` of a document of a schema in
    ``READ_SCHEMAS``; the schema, not an entry's shape, picks its sets' reader.

    The document comes from outside the program, so every field is checked;
    any mismatch raises :class:`CertificateError`."""
    if not isinstance(data, dict):
        raise CertificateError("a certificate document is a JSON object")
    schema = data.get("schema")
    if type(schema) is not int or schema not in READ_SCHEMAS:
        hint = f"; re-run explain to write schema {SCHEMA_VERSION}" if schema == 1 else ""
        raise CertificateError(f"unsupported certificate schema {schema!r}{hint}")
    sets = sets_from_json(space, data, rows=schema < 4)

    def ref(value) -> StateSet:
        # bool is an int subclass, and a negative index would wrap around
        if type(value) is not int or not 0 <= value < len(sets):
            raise CertificateError(f"set reference {value!r} is not an index into sets")
        return sets[value]

    def node(n) -> Certificate:
        if not isinstance(n, dict):
            raise CertificateError(f"certificate node {n!r} is not an object")
        rule = n.get("rule")
        if rule == "SBR":
            assumption, helpful = n.get("assumption"), n.get("helpful")
            if not isinstance(assumption, str) or not isinstance(helpful, (str, type(None))):
                raise CertificateError("SBR assumption and helpful must be strings")
            return Basic(ref(n.get("p")), ref(n.get("q")), assumption, helpful)
        if rule == "STR":
            return Trans(node(n.get("left")), node(n.get("right")))
        if rule == "SDR":
            parts = n.get("parts")
            if not isinstance(parts, list):
                raise CertificateError("SDR parts must be a list")
            return Disj(tuple(node(p) for p in parts), ref(n.get("q")))
        raise CertificateError(f"unknown rule {rule!r}")

    claimed = data.get("claimed")
    if not isinstance(claimed, dict):
        raise CertificateError("claimed must be an object")
    return node(data.get("certificate")), (ref(claimed.get("a")), ref(claimed.get("b")))


def sets_from_json(space: StateSpace, data: dict, rows: bool = False) -> list[StateSet]:
    """The ``sets`` table of a document of ``space``'s ``vars``, decoded: each
    entry a list of state indices, a delta entry's other states under
    ``plus``, or with ``rows`` (certificate schemas 2 and 3) a list of rows
    of values, a delta entry's under ``rows``."""
    names = [v.name for v in space.vars]
    if data.get("vars") != names:
        raise CertificateError(f"vars {data.get('vars')!r} are not the model's {names!r}")
    table = data.get("sets")
    if not isinstance(table, list):
        raise CertificateError("sets must be a list")
    decode, key = (_from_rows, "rows") if rows else (_from_indices, "plus")
    sets: list[StateSet] = []
    for i, entry in enumerate(table):
        base = None
        if isinstance(entry, dict):
            if entry.keys() != {"base", key}:
                raise CertificateError(f"set {i} is neither a list nor an object of base and {key}")
            base, entry = entry["base"], entry[key]
            if type(base) is not int or not 0 <= base < i:
                raise CertificateError(f"base {base!r} of set {i} is not the index of an earlier set")
        try:
            members = decode(space, entry)
        except SpaceError as e:
            raise CertificateError(f"set {i}: {e}") from None
        sets.append(members if base is None else sets[base] | members)
    return sets


def _from_indices(space: StateSpace, members) -> StateSet:
    # a member must be a JSON integer: bool is an int subclass, and 1.0 == 1
    if not isinstance(members, list) or not {*map(type, members)} <= {int}:
        raise SpaceError("not a list of state indices")
    return space.from_indices(members)


def _from_rows(space: StateSpace, rows) -> StateSet:
    width = len(space.vars)
    if not isinstance(rows, list) or not all(isinstance(r, list) and len(r) == width for r in rows):
        raise SpaceError(f"not a list of rows of {width} values")
    return space.from_rows(rows)
