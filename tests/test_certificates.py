"""Certificate derivation, checking, serialization, and mutation robustness."""

import json
import os

import pytest

from fixleads.certificates import (
    Basic,
    CertificateError,
    Disj,
    Trans,
    cert_from_json,
    cert_to_json,
    check_certificate,
    derive_certificate_mp,
    derive_certificate_wf,
)
from fixleads import load_file
from fixleads.mp import leadsto_mp
from fixleads.wf import leadsto_wf

from conftest import xs


@pytest.fixture(scope="module")
def ring3():
    """ring3's system and the sets of its enter_wf property."""
    elab = load_file(os.path.join(os.path.dirname(__file__), "data", "ring3.evt"))
    prop = next(p for p in elab.properties if p.name == "enter_wf")
    return elab.system, prop.p, prop.q


def _leaves(cert):
    if isinstance(cert, Basic):
        return [cert]
    parts = cert.links if isinstance(cert, Trans) else cert.parts
    return [leaf for part in parts for leaf in _leaves(part)]


def test_derive_mp_mono3(mono3):
    a, b = xs(mono3, 0), xs(mono3, 2)
    v = leadsto_mp(mono3, a, b)
    cert = derive_certificate_mp(mono3, a, b, v.trace)
    assert check_certificate(mono3, cert, (a, b), "mp")
    # chain length bounded by the trace length
    assert len(_leaves(cert)) <= len(v.trace.steps)


def test_derive_mp_trivial_inclusion(mono3):
    a = xs(mono3, 2)
    v = leadsto_mp(mono3, a, a)
    cert = derive_certificate_mp(mono3, a, a, v.trace)
    assert isinstance(cert, Basic)
    assert check_certificate(mono3, cert, (a, a), "mp")


def test_derive_mp_rejects_claims_outside_fixpoint(idle):
    a, b = xs(idle, 0), xs(idle, 1)
    v = leadsto_mp(idle, a, b)
    assert not v.holds
    with pytest.raises(CertificateError):
        derive_certificate_mp(idle, a, b, v.trace)


def _derive(sys_, a, b, assumption):
    """The certificate ``explain`` derives for ``a`` leads to ``b``."""
    if assumption == "mp":
        return derive_certificate_mp(sys_, a, b, leadsto_mp(sys_, a, b).trace)
    v = leadsto_wf(sys_, a, b)
    return derive_certificate_wf(sys_, a, b, v.trace, v.fair_deltas)


def test_derive_wf_idle(idle):
    a, b = xs(idle, 0), xs(idle, 1)
    cert = _derive(idle, a, b, "wf")
    assert check_certificate(idle, cert, (a, b), "wf")
    assert any(isinstance(n, Disj) for n in _walk(cert))


def test_derive_wf_rejects_cycle3(cycle3):
    a, b = xs(cycle3, 0), xs(cycle3, 2)
    v = leadsto_wf(cycle3, a, b)
    with pytest.raises(CertificateError):
        derive_certificate_wf(cycle3, a, b, v.trace, v.fair_deltas)


def test_derive_wf_checks_each_layer_against_the_fair_deltas(ring3):
    sys_, a, b = ring3
    v = leadsto_wf(sys_, a, b)
    k = next(k for k, deltas in enumerate(v.fair_deltas) if deltas)
    dropped = v.fair_deltas[:k] + (v.fair_deltas[k][1:],) + v.fair_deltas[k + 1:]
    with pytest.raises(CertificateError, match="does not reconstruct from the fair deltas"):
        derive_certificate_wf(sys_, a, b, v.trace, dropped)


def _walk(cert):
    yield cert
    if isinstance(cert, Trans):
        for link in cert.links:
            yield from _walk(link)
    elif isinstance(cert, Disj):
        for part in cert.parts:
            yield from _walk(part)


def test_single_leaf_inclusion_accepted(mono3):
    a = xs(mono3, 1)
    cert = Basic(a, xs(mono3, 1, 2), "mp")
    assert check_certificate(mono3, cert, (a, xs(mono3, 1, 2)), "mp")


def test_checker_rejects_mismatches(mono3):
    a, b = xs(mono3, 0), xs(mono3, 2)
    cert = derive_certificate_mp(mono3, a, b, leadsto_mp(mono3, a, b).trace)
    # claim with a different target set
    assert not check_certificate(mono3, cert, (a, xs(mono3, 1)), "mp")
    # claim under the wrong assumption
    assert not check_certificate(mono3, cert, (a, b), "wf")
    # broken transitivity composition
    bad = Trans((Basic(a, b, "mp"), Basic(xs(mono3, 1), b, "mp")))
    assert not check_certificate(mono3, bad, (a, b), "mp")
    # empty disjunction
    assert not check_certificate(mono3, Disj((), b), (a, b), "mp")
    # a wf leaf stands only on a helpful event of the system
    one = xs(mono3, 1)
    assert check_certificate(mono3, Basic(a, one, "wf", "inc"), (a, one), "wf")
    for helpful in ("ghost", None):
        assert not check_certificate(mono3, Basic(a, one, "wf", helpful), (a, one), "wf")


def test_json_round_trip(idle, mono3):
    for sys_, assumption in ((mono3, "mp"), (idle, "wf")):
        a = xs(sys_, 0)
        b = xs(sys_, 2) if assumption == "mp" else xs(sys_, 1)
        cert = _derive(sys_, a, b, assumption)
        data = json.loads(json.dumps(cert_to_json(cert, (a, b))))  # as explain writes it
        assert data["schema"] == 5
        assert data["certificate"]["rule"] in ("SBR", "STR", "SDR")
        back, claimed, read = cert_from_json(sys_.space, data)
        assert read == assumption
        # each distinct set is stored once, by size, as its ascending state
        # indices; a set holding an earlier one is stored as the largest such
        # plus its other states
        masks = []
        for entry in data["sets"]:
            members = entry["plus"] if isinstance(entry, dict) else entry
            assert members == sorted(set(members))
            base = masks[entry["base"]] if isinstance(entry, dict) else 0
            masks.append(base | sys_.space.from_indices(members).mask)
        assert len(set(masks)) == len(masks)
        assert [m.bit_count() for m in masks] == sorted(m.bit_count() for m in masks)
        for i, entry in enumerate(data["sets"]):
            inside = [j for j in range(i) if masks[j] and not masks[j] & ~masks[i]]
            if isinstance(entry, dict):
                assert entry["base"] == max(inside, key=lambda j: (masks[j].bit_count(), j))
            else:
                assert not inside
        assert [s.mask for s in claimed] == [a.mask, b.mask]
        assert check_certificate(sys_, back, claimed, assumption)
        assert json.loads(json.dumps(cert_to_json(back, claimed))) == data


def _document(**fields):
    doc = {"schema": 2, "system": "mono3", "property": "climb", "assumption": "mp",
           "vars": ["x"], "sets": [[[0]], [[2]]],
           "claimed": {"a": 0, "b": 1},
           "certificate": {"rule": "SBR", "p": 0, "q": 1, "assumption": "mp"}}
    doc.update(fields)
    return doc


def test_unknown_schema_rejected(mono3):
    cert, (a, b), _ = cert_from_json(mono3.space, _document())
    assert (sorted(a), sorted(b)) == ([0], [2]) and cert.p is a
    no_schema = _document()
    del no_schema["schema"]
    with pytest.raises(CertificateError, match="re-run explain to write schema 5"):
        cert_from_json(mono3.space, _document(schema=1))
    for bad in (no_schema, _document(schema=99), _document(schema=True),
                _document(certificate={"rule": "XYZ"})):
        with pytest.raises(CertificateError):
            cert_from_json(mono3.space, bad)


@pytest.mark.parametrize("fields", [
    {"vars": ["y"]},
    {"vars": "x"},
    {"sets": [[[0, 1]], [[2]]]},  # a row too long
    {"sets": [[[3]], [[2]]]},  # a row naming no state
    {"sets": [[[[0]]], [[2]]]},  # an unhashable value
    {"sets": {"0": []}},
    {"claimed": {"a": -1, "b": 1}},  # would wrap around to the last set
    {"claimed": {"a": True, "b": 1}},
    {"claimed": {"a": 0, "b": 2}},
    {"claimed": {"a": 0.0, "b": 1}},
    {"claimed": [0, 1]},
    {"certificate": {"rule": "SBR", "p": "0", "q": 1, "assumption": "mp"}},
    {"certificate": {"rule": "SBR", "p": 0, "q": 1, "assumption": ["mp"]}},
    {"certificate": {"rule": "SBR", "p": 0, "q": 1, "assumption": "wf", "helpful": 3}},
    {"certificate": {"rule": "STR", "left": [], "right": {}}},
    {"certificate": {"rule": "SDR", "q": 1, "parts": {}}},
    {"sets": [[[0]], {"base": 1, "rows": [[2]]}]},  # its own base
    {"sets": [[[0]], {"base": 2, "rows": [[2]]}, [[1]]]},  # a later base
    {"sets": [[[0]], {"base": False, "rows": [[2]]}]},
    {"sets": [[[0]], {"base": 0, "rows": [2]}]},
    {"sets": [[[0]], {"base": 0, "rows": None}]},
    {"sets": [[[0]], {"base": 0}]},
    {"sets": [[[0]], {"base": 0, "rows": [], "more": []}]},
])
def test_malformed_documents_rejected(mono3, fields):
    with pytest.raises(CertificateError):
        cert_from_json(mono3.space, _document(**fields))


def _mutate_leaf(space, cert, target, grow_p):
    """Rebuild the tree with one leaf's p enlarged or q shrunk by one state."""
    if isinstance(cert, Basic):
        if cert is target:
            if grow_p is not None:
                return Basic(cert.p | grow_p, cert.q, cert.assumption, cert.helpful)
            drop = next(iter(cert.q), None)
            if drop is None:
                return cert
            return Basic(cert.p, cert.q - space.from_indices([drop]),
                         cert.assumption, cert.helpful)
        return cert
    if isinstance(cert, Trans):
        return Trans(tuple(_mutate_leaf(space, link, target, grow_p) for link in cert.links))
    return Disj(tuple(_mutate_leaf(space, p, target, grow_p) for p in cert.parts),
                cert.q)


def test_schema_2_and_3_tables_decode_alike(mono3):
    rows = {"sets": [[[0]], [[2]], [[1], [2]], [[0], [1], [2]]]}
    deltas = {"sets": [[[0]], [[2]], {"base": 1, "rows": [[1]]}, {"base": 2, "rows": [[0]]}]}
    schema2 = cert_from_json(mono3.space, _document(**rows, claimed={"a": 3, "b": 2}))
    for schema in (2, 3):
        doc = _document(**deltas, schema=schema, claimed={"a": 3, "b": 2})
        assert cert_from_json(mono3.space, doc) == schema2
    # schema 4: each state as its index, here x, a delta's states under plus
    indices = {"sets": [[0], [2], {"base": 1, "plus": [1]}, {"base": 2, "plus": [0]}]}
    doc = _document(**indices, schema=4, claimed={"a": 3, "b": 2})
    assert cert_from_json(mono3.space, doc) == schema2
    # rows already in the base are allowed; the entry is the union
    doc = _document(sets=[[[0]], {"base": 0, "rows": [[0], [1]]}], claimed={"a": 1, "b": 0})
    assert sorted(cert_from_json(mono3.space, doc)[1][0]) == [0, 1]


def test_mutations_never_crash_and_usually_reject(mono3, idle, ring3):
    """Acceptance-style mutation check on the fixture certificates: every
    leaf of mono3's and idle's, and every lean wf leaf of ring3's."""
    from fixleads.certificates import _leaf_ok

    for sys_, assumption in ((mono3, "mp"), (idle, "wf")):
        a = xs(sys_, 0)
        b = xs(sys_, 2) if assumption == "mp" else xs(sys_, 1)
        cert = _derive(sys_, a, b, assumption)
        for leaf in _leaves(cert):
            for idx in sys_.space.universe():
                extra = sys_.space.from_indices([idx])
                mutated = _mutate_leaf(sys_.space, cert, leaf, extra)
                ok = check_certificate(sys_, mutated, (a, b), assumption)
                if ok:
                    # acceptance may survive only if every leaf still ensures
                    for m_leaf in _leaves(mutated):
                        assert _leaf_ok(sys_, m_leaf)
    # lean wf leaves: p is the states a fair loop adds to q, so p and q are
    # disjoint, and only growing p by a state outside q changes the leaf
    ring, a, b = ring3
    cert = _derive(ring, a, b, "wf")
    lean = [leaf for leaf in _leaves(cert) if leaf.p.mask and not leaf.p.mask & leaf.q.mask]
    assert len(lean) >= 10
    space, rejected = ring.space, 0
    for leaf in lean:
        for idx in space.universe():
            if idx in leaf.p:
                continue
            mutated = _mutate_leaf(space, cert, leaf, space.from_indices([idx]))
            if check_certificate(ring, mutated, (a, b), "wf"):
                assert all(_leaf_ok(ring, m_leaf) for m_leaf in _leaves(mutated))
            else:
                rejected += 1
    assert rejected > 0
