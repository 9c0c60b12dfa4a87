"""Derivation certificates for leads-to verdicts and their checker.

A certificate is a tree over three rules: a basic leaf (one ensures step),
transitivity along a chain of two or more links, and disjunction.  Leaves
are re-checked definitionally, so a certificate is evidence independent of
the fixpoint computation that produced it.  Sets are stored explicitly, each
state as its index in the model's declarations, which keeps checking
bit-exact and independent of any source syntax.
"""
from __future__ import annotations

from collections.abc import Callable

from .events import EventSystem, IterateTrace
from .mp import ensures_mp
from .records import Frozen, setfield
from .states import SpaceError, StateSet, StateSpace, set_table, sets_from_json
from .wf import ensures_wf

SCHEMA_VERSION = 5  # each chain one node of links, and the leaves' assumption written once
READ_SCHEMAS = (2, 3, 4, 5)  # 4: nested chains, an assumption per leaf; 3: rows; 2: no deltas


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
    """``links[0] ; ... ; links[-1]``: each link's ``q`` is the next one's ``p``."""

    __slots__ = ("links",)

    def __init__(self, links: tuple["Certificate", ...]):
        setfield(self, "links", links)


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
        if len(cert.links) < 2:
            return None
        p = q = None
        for link in cert.links:
            concluded = _checked_conclusion(sys, link, assumption)
            if concluded is None or q is not None and q.mask != concluded[0].mask:
                return None
            p = concluded[0] if p is None else p
            q = concluded[1]
        return p, q
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


def _layers(trace: IterateTrace) -> list[StateSet]:
    steps = list(trace.steps)
    while len(steps) >= 2 and steps[-1].mask == steps[-2].mask:
        steps.pop()
    return steps  # [∅, b, ..., fixpoint], strictly increasing


def _derive(
    a: StateSet, b: StateSet, trace: IterateTrace, assumption: str, helpful: str | None,
    layer_node: Callable[[StateSet, StateSet, int], Certificate],
) -> Certificate:
    """The chain ``fix = r_K -> r_{K-1} -> ... -> r_1 = b`` down the iterate
    trace, where ``layer_node(r_k, r_{k-1}, k - 1)`` proves each layer step
    (``k - 1`` is the index of ``r_{k-1}`` in ``trace.steps``); it proves
    ``a`` leads to ``b`` because ``a`` is inside ``fix``, and the checker
    accepts a root ``p`` that contains the claimed ``a``."""
    layers = _layers(trace)
    if not a.is_subset(layers[-1]):
        raise CertificateError("claimed start set is not inside the fixpoint")
    if a.is_subset(b):
        return Basic(a, b, assumption, helpful)
    links = [layer_node(layers[k], layers[k - 1], k - 1) for k in range(len(layers) - 1, 1, -1)]
    return Trans(tuple(links)) if len(links) > 1 else links[0]


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
    fair loop adds states to the layer below, in the order of the fair
    deltas, a lean leaf ``Basic(fair_loop_g - below, below, helpful=g)``,
    kept only if it adds a state that ``below`` and the leaves kept before
    it do not cover.  A leaf holds because the loop contains ``below``:
    ``ensures_wf`` reads only ``p - q`` and ``AX(p ∪ q)``, which are the same
    for the loop and for the lean ``p``."""
    first = sys.events[0].name

    def layer_node(layer: StateSet, below: StateSet, k: int) -> Certificate:
        parts: list[Certificate] = [Basic(below, below, "wf", helpful=first)]
        concluded = below.mask  # the disjunction's p: the union of its parts' p
        for name, added in fair_deltas[k]:
            if added.mask & ~concluded:
                parts.append(Basic(added, below, "wf", helpful=name))
                concluded |= added.mask
        # the layer is exactly target ∪ fair steps, so conclusions match
        if concluded != layer.mask:
            raise CertificateError("iterate trace does not reconstruct from the fair deltas")
        return Disj(tuple(parts), below)

    return _derive(a, b, trace, "wf", first, layer_node)


# --- JSON round trip -------------------------------------------------------
#
# A document names its states by the ``vars`` and ``sets`` header that
# ``states.set_table`` writes and ``states.sets_from_json`` reads: each
# distinct set stored once, ``claimed`` and the tree's ``p``/``q`` fields
# indices into ``sets``.  Sets are met a, b, then the tree in pre-order.
# Each layer of a chain contains the layer below it, which is smaller, so it
# costs at most its new states.  The leaves' assumption is the document's.
# Schema 4 wrote each chain as nested ``left``/``right`` pairs and an
# assumption on each leaf; schemas 2 and 3 also wrote each state as its row
# of values in ``vars`` order, under ``rows`` in a delta entry.


def cert_to_json(cert: Certificate, claimed: tuple[StateSet, StateSet]) -> dict:
    """The schema-5 document for ``cert`` proving ``claimed = (a, b)``, under
    the one assumption of its leaves."""
    a, b = claimed
    assumptions = set()

    def node(c: Certificate) -> dict:
        if isinstance(c, Basic):
            assumptions.add(c.assumption)
            out = {"rule": "SBR", "p": c.p, "q": c.q}
            if c.helpful is not None:
                out["helpful"] = c.helpful
            return out
        if isinstance(c, Trans):
            return {"rule": "STR", "links": [node(link) for link in c.links]}
        if isinstance(c, Disj):
            return {"rule": "SDR", "q": c.q, "parts": [node(p) for p in c.parts]}
        raise TypeError(f"bad certificate node {c!r}")

    header, doc = set_table(a.space, {"claimed": {"a": a, "b": b}, "certificate": node(cert)})
    if len(assumptions) != 1:
        raise CertificateError(f"leaves under assumptions {sorted(assumptions)!r}, not one")
    return {"assumption": assumptions.pop(), "schema": SCHEMA_VERSION, **header, **doc}


def cert_from_json(
    space: StateSpace, data: dict
) -> tuple[Certificate, tuple[StateSet, StateSet], str]:
    """The certificate, the claim ``(a, b)`` and the assumption of a document
    of a schema in ``READ_SCHEMAS``; the schema, not an entry's shape, picks
    its sets' reader and its chains' and leaves' form.

    The document comes from outside the program, so every field is checked;
    any mismatch raises :class:`CertificateError`."""
    if not isinstance(data, dict):
        raise CertificateError("a certificate document is a JSON object")
    schema = data.get("schema")
    if type(schema) is not int or schema not in READ_SCHEMAS:
        hint = f"; re-run explain to write schema {SCHEMA_VERSION}" if schema == 1 else ""
        raise CertificateError(f"unsupported certificate schema {schema!r}{hint}")
    try:
        sets = sets_from_json(space, data, rows=schema < 4)
    except SpaceError as e:
        raise CertificateError(str(e)) from None
    if not isinstance(data.get("assumption"), str):
        raise CertificateError(f"assumption {data.get('assumption')!r} is not a string")
    flat = schema >= 5  # chains as lists of links, and the leaves' assumption the document's

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
            if flat and "assumption" in n:
                raise CertificateError("an SBR leaf carries no assumption: it is the document's")
            assumption = data["assumption"] if flat else n.get("assumption")
            helpful = n.get("helpful")
            if not isinstance(assumption, str) or not isinstance(helpful, (str, type(None))):
                raise CertificateError("SBR assumption and helpful must be strings")
            return Basic(ref(n.get("p")), ref(n.get("q")), assumption, helpful)
        if rule == "STR":
            if not flat:
                return Trans((node(n.get("left")), node(n.get("right"))))
            links = n.get("links")
            if not isinstance(links, list) or len(links) < 2:
                raise CertificateError("STR links must be a list of at least 2 nodes")
            return Trans(tuple(map(node, links)))
        if rule == "SDR":
            parts = n.get("parts")
            if not isinstance(parts, list):
                raise CertificateError("SDR parts must be a list")
            return Disj(tuple(node(p) for p in parts), ref(n.get("q")))
        raise CertificateError(f"unknown rule {rule!r}")

    claimed = data.get("claimed")
    if not isinstance(claimed, dict):
        raise CertificateError("claimed must be an object")
    cert = node(data.get("certificate"))
    return cert, (ref(claimed.get("a")), ref(claimed.get("b"))), data["assumption"]
