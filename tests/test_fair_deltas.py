"""The fair step, the fair deltas ``leadsto_wf`` carries, and the lean
certificates built from them, against their references: the plain union of
every event's fair loop, the Kleene iteration of that union, and
``check-cert`` on what ``explain`` writes.  Run on every model in
``tests/data``, on the benchmark families and on random systems."""
import json
import os
import random

import pytest

from fixleads import EventSystem, lfp, load_file
from fixleads import transformers, wf
from fixleads.certificates import (
    Basic,
    Disj,
    Trans,
    cert_from_json,
    cert_to_json,
    check_certificate,
    derive_certificate_wf,
)
from fixleads.cli import check_property, main, resolve

from conftest import random_set, random_system
from test_bench_models import FAMILIES
from test_cli import MODELS, _captured, _path


def reference_loop(sys_, q, g, r):
    """The reference fair loop: its liberal loop met with its termination set."""
    liberal = transformers.fair_loop_liberal(sys_, q, g, r)
    return liberal & transformers.fair_loop_termination(sys_, q, g)


def assert_engine_matches_reference(sys_, a, b, loop=reference_loop):
    """``leadsto_wf`` against the Kleene iteration of the fair step that joins
    every event's ``loop``, by default the reference's (``transformers.wf_step``
    taken event by event, so each loop runs once); its fair deltas against
    each event's loop beyond each iterate.  With ``loop=wf.fair_loop`` it holds
    the engine only to its own loops: a check of its bookkeeping."""
    v = wf.leadsto_wf(sys_, a, b)
    added = []  # per iterate, each event's loop beyond it

    def step(x):
        added.append({g.name: loop(sys_, x, g, x) - x for g in sys_.events})
        for beyond in added[-1].values():
            x = x | beyond
        return b | x

    _, trace = lfp(step, sys_.space)
    assert [s.mask for s in v.trace.steps] == [s.mask for s in trace.steps]
    assert len(v.fair_deltas) == len(trace.steps) - 1
    for deltas, beyond in zip(v.fair_deltas, added):
        assert [(name, d.mask) for name, d in deltas] == [
            (name, d.mask) for name, d in beyond.items() if not d.is_empty()]
    return v


def assert_certificate_round_trip(sys_, a, b, v):
    """The certificate ``explain`` writes for ``v``, read back and checked as
    ``check-cert`` does; each layer is ``Basic(below, below)`` and, in the
    fair deltas' order, a lean leaf for each event whose delta adds a state
    that ``below`` and the leaves before it do not cover; they all hold and
    join to the layer."""
    cert = derive_certificate_wf(sys_, a, b, v.trace, v.fair_deltas)
    data = json.loads(json.dumps(cert_to_json(cert, (a, b))))
    back, claimed = cert_from_json(sys_.space, data)
    assert [s.mask for s in claimed] == [a.mask, b.mask]
    assert check_certificate(sys_, back, claimed, "wf")
    layers = {s.mask for s in v.trace.steps}
    stack = [cert]
    while stack:
        node = stack.pop()
        if isinstance(node, Disj):
            below = node.q
            assert node.parts[0].p == below
            joined = below
            for leaf in node.parts[1:]:
                assert isinstance(leaf, Basic) and leaf.q == below
                assert not leaf.p.is_empty() and (leaf.p & below).is_empty()
                assert wf.ensures_wf(sys_, sys_.event(leaf.helpful), leaf.p, below).holds
                joined = joined | leaf.p
            assert joined.mask in layers
            deltas = v.fair_deltas[next(k for k, s in enumerate(v.trace.steps) if s == below)]
            leaves = [(leaf.helpful, leaf.p) for leaf in node.parts[1:]]
            assert leaves == [d for d in deltas if d in leaves]
            covered = below
            for _, p in leaves:  # each kept leaf adds a state below and the earlier ones lack
                assert not p.is_subset(covered)
                covered = covered | p
            assert all(p.is_subset(covered) for _, p in deltas)  # and each dropped delta is covered
        elif isinstance(node, Trans):
            stack += node.links


def _claims(path):
    elab = load_file(path)
    for prop in elab.properties:
        if prop.kind == "leadsto":
            claim = resolve(elab, prop)
            yield elab, prop, claim


@pytest.mark.parametrize("model", MODELS + sorted(FAMILIES))
def test_fair_deltas_and_lean_certificates_on_models(tmp_path, model):
    if model in FAMILIES:
        path = tmp_path / f"{model}.evt"
        path.write_text(FAMILIES[model].text)
        path = str(path)
    else:
        path = _path(model + ".evt")
    # the reference loop takes about 18 s on ring5 and 2.4 s on starve5
    loop = wf.fair_loop if model in ("ring5", "starve5") else reference_loop
    for elab, prop, claim in _claims(path):
        v = assert_engine_matches_reference(elab.system, claim.a, claim.b, loop)
        if v.holds:
            assert_certificate_round_trip(elab.system, claim.a, claim.b, v)
        if check_property(elab, prop, claim).holds:
            cert = str(tmp_path / f"{prop.name}.cert.json")
            assert _captured(["explain", path, prop.name, "--out", cert])[0] == 0
            assert _captured(["check-cert", path, cert]) == (0, "certificate accepted\n", "")


def test_fair_deltas_and_lean_certificates_on_random_systems():
    rng = random.Random(1111)
    holes = certified = 0
    for _ in range(300):
        sys_ = random_system(rng, max_states=8)
        holes += sys_.space.size < sys_.space.raw_size
        a, b = random_set(rng, sys_.space), random_set(rng, sys_.space)
        v = assert_engine_matches_reference(sys_, a, b)
        if v.holds:
            assert_certificate_round_trip(sys_, a, b, v)
            certified += 1
    assert holes >= 50 and certified >= 50


def test_explain_runs_no_fair_loop_beyond_the_engine(tmp_path, monkeypatch):
    calls = []
    loop, attract = wf.fair_loop, EventSystem.weak_attract
    monkeypatch.setattr(wf, "fair_loop", lambda *args: calls.append(args) or loop(*args))
    monkeypatch.setattr(EventSystem, "weak_attract",
                        lambda *args: calls.append(args) or attract(*args))
    path = _path("ring3.evt")
    for elab, prop, claim in _claims(path):
        if claim.semantics != "wf":
            continue
        verdict = check_property(elab, prop, claim)
        engine = len(calls)
        assert engine > 0
        del calls[:]
        derive_certificate_wf(elab.system, claim.a, claim.b, verdict.trace, verdict.fair_deltas)
        assert calls == []
        out = str(tmp_path / "cert.json")
        assert main(["explain", path, prop.name, "--out", out]) == 0
        assert len(calls) == engine  # the engine's own, and nothing else
        del calls[:]
