"""Derivation certificates for leads-to verdicts and their checker.

A certificate is a tree over three rules: a basic leaf (one ensures step),
transitivity, and disjunction.  Leaves are re-checked definitionally, so a
certificate is evidence independent of the fixpoint computation that
produced it.  Sets are stored explicitly, which keeps checking bit-exact
and independent of any source syntax.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from .events import EventSystem
from .states import StateSet, StateSpace
from .transformers import IterateTrace

SCHEMA_VERSION = 1


class CertificateError(Exception):
    """Certificate cannot be derived (claim not inside the fixpoint)."""


@dataclass(frozen=True)
class Basic:
    """One ensures step: p leads to q by a single fair/minimal-progress step."""

    p: StateSet
    q: StateSet
    assumption: str  # 'mp' | 'wf'
    helpful: Optional[str] = None  # event name, wf only

    rule = "SBR"


@dataclass(frozen=True)
class Trans:
    left: "Certificate"
    right: "Certificate"

    rule = "STR"


@dataclass(frozen=True)
class Disj:
    parts: Tuple["Certificate", ...]
    q: StateSet

    rule = "SDR"


Certificate = Union[Basic, Trans, Disj]


def conclusion(cert: Certificate) -> Tuple[StateSet, StateSet]:
    """The (p, q) pair a well-formed certificate concludes."""
    if isinstance(cert, Basic):
        return cert.p, cert.q
    if isinstance(cert, Trans):
        return conclusion(cert.left)[0], conclusion(cert.right)[1]
    if isinstance(cert, Disj):
        p = cert.q.space.empty()
        for part in cert.parts:
            p = p | conclusion(part)[0]
        return p, cert.q
    raise TypeError(f"bad certificate node {cert!r}")


def _leaf_ok(sys: EventSystem, leaf: Basic) -> bool:
    pending = leaf.p - leaf.q
    if leaf.assumption == "mp":
        return pending.is_subset(sys.apply_all(leaf.q) & sys.grd_all)
    if leaf.assumption == "wf":
        if leaf.helpful is None:
            return False
        try:
            g = sys.event(leaf.helpful)
        except Exception:
            return False
        rhs = sys.apply_all(leaf.p | leaf.q) & g.guard & g.apply(leaf.q)
        return pending.is_subset(rhs)
    return False


def check_certificate(
    sys: EventSystem,
    cert: Certificate,
    claimed: Tuple[StateSet, StateSet],
    assumption: str,
    path: str = "root",
) -> bool:
    """True iff every leaf passes its ensures check, internal nodes compose,
    and the root concludes the claim (root p may exceed the claimed a)."""
    a, b = claimed
    ok, _ = _check_node(sys, cert, assumption, path)
    if not ok:
        return False
    p, q = conclusion(cert)
    return a.is_subset(p) and q.mask == b.mask


def _check_node(sys, cert, assumption, path) -> Tuple[bool, Optional[str]]:
    if isinstance(cert, Basic):
        if cert.assumption != assumption:
            return False, path
        return (_leaf_ok(sys, cert), path)
    if isinstance(cert, Trans):
        lok, where = _check_node(sys, cert.left, assumption, path + ".left")
        if not lok:
            return False, where
        rok, where = _check_node(sys, cert.right, assumption, path + ".right")
        if not rok:
            return False, where
        if conclusion(cert.left)[1].mask != conclusion(cert.right)[0].mask:
            return False, path
        return True, path
    if isinstance(cert, Disj):
        if not cert.parts:
            return False, path
        for i, part in enumerate(cert.parts):
            pok, where = _check_node(sys, part, assumption, f"{path}.part{i}")
            if not pok:
                return False, where
            if conclusion(part)[1].mask != cert.q.mask:
                return False, path
        return True, path
    return False, path


def _chain(links: List[Certificate]) -> Certificate:
    cert = links[0]
    for nxt in links[1:]:
        cert = Trans(cert, nxt)
    return cert


def _layers(trace: IterateTrace) -> List[StateSet]:
    steps = list(trace.steps)
    while len(steps) >= 2 and steps[-1].mask == steps[-2].mask:
        steps.pop()
    return steps  # [∅, b, ..., fixpoint], strictly increasing


def derive_certificate_mp(
    sys: EventSystem, a: StateSet, b: StateSet, trace: IterateTrace
) -> Certificate:
    """Chain certificate read off the iterate trace of the MP leads-to check."""
    layers = _layers(trace)
    fix = layers[-1]
    if not a.is_subset(fix):
        raise CertificateError("claimed start set is not inside the fixpoint")
    if a.is_subset(b):
        return Basic(a, b, "mp")
    links: List[Certificate] = [Basic(a, fix, "mp")]
    # descend fix = r_K -> r_{K-1} -> ... -> r_1 = b
    for k in range(len(layers) - 1, 1, -1):
        links.append(Basic(layers[k], layers[k - 1], "mp"))
    return _chain(links)


def derive_certificate_wf(
    sys: EventSystem, a: StateSet, b: StateSet, trace: IterateTrace
) -> Certificate:
    """Layered certificate for the WF leads-to check: each layer is the
    disjunction of per-event fair-loop basic steps down to the layer below."""
    from .wf import fair_loop

    layers = _layers(trace)
    fix = layers[-1]
    if not a.is_subset(fix):
        raise CertificateError("claimed start set is not inside the fixpoint")
    if a.is_subset(b):
        return Basic(a, b, "wf", helpful=sys.events[0].name)
    links: List[Certificate] = [Basic(a, fix, "wf", helpful=sys.events[0].name)]
    for k in range(len(layers) - 1, 1, -1):
        below = layers[k - 1]
        parts: List[Certificate] = [
            Basic(below, below, "wf", helpful=sys.events[0].name)
        ]
        for g in sys.events:
            parts.append(Basic(fair_loop(sys, below, g, below), below, "wf", helpful=g.name))
        node = Disj(tuple(parts), below)
        # the layer above is exactly target ∪ fair steps, so conclusions match
        if conclusion(node)[0].mask != layers[k].mask:
            raise CertificateError("iterate trace does not reconstruct from fair loops")
        links.append(node)
    return _chain(links)


# --- JSON round trip -------------------------------------------------------


def cert_to_json(cert: Certificate) -> dict:
    out = _node_to_json(cert)
    out["schema"] = SCHEMA_VERSION
    return out


def _node_to_json(cert: Certificate) -> dict:
    if isinstance(cert, Basic):
        node = {
            "rule": "SBR",
            "p": cert.p.to_json(),
            "q": cert.q.to_json(),
            "assumption": cert.assumption,
        }
        if cert.helpful is not None:
            node["helpful"] = cert.helpful
        return node
    if isinstance(cert, Trans):
        return {
            "rule": "STR",
            "left": _node_to_json(cert.left),
            "right": _node_to_json(cert.right),
        }
    if isinstance(cert, Disj):
        return {
            "rule": "SDR",
            "q": cert.q.to_json(),
            "parts": [_node_to_json(p) for p in cert.parts],
        }
    raise TypeError(f"bad certificate node {cert!r}")


def cert_from_json(space: StateSpace, data: dict) -> Certificate:
    if data.get("schema", SCHEMA_VERSION) != SCHEMA_VERSION:
        raise CertificateError(f"unsupported certificate schema {data.get('schema')!r}")
    return _node_from_json(space, data)


def _set_from_json(space: StateSpace, states: list) -> StateSet:
    return space.from_indices(space.index_of(st) for st in states)


def _node_from_json(space: StateSpace, data: dict) -> Certificate:
    rule = data.get("rule")
    if rule == "SBR":
        return Basic(
            _set_from_json(space, data["p"]),
            _set_from_json(space, data["q"]),
            data["assumption"],
            data.get("helpful"),
        )
    if rule == "STR":
        return Trans(
            _node_from_json(space, data["left"]),
            _node_from_json(space, data["right"]),
        )
    if rule == "SDR":
        return Disj(
            tuple(_node_from_json(space, p) for p in data["parts"]),
            _set_from_json(space, data["q"]),
        )
    raise CertificateError(f"unknown rule {rule!r}")
