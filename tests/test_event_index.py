"""``EventSystem.by_name``, the one index of events by name, against the
linear scan ``EventSystem.event`` used to run: the same event for every
name on ``tests/data``, the benchmark families and random systems, the same
errors for unknown and duplicate names, and a certificate check that reads
the index instead of scanning the events once per leaf."""
import os
import random

import pytest

from fixleads import elaborate, load_file, parse
from fixleads.certificates import Basic, Disj, check_certificate, derive_certificate_wf
from fixleads.dsl import DslError
from fixleads.events import Event, EventSystem, ModelError
from fixleads.wf import leadsto_wf

from conftest import make_space, random_system
from test_bench_models import FAMILIES

DATA = os.path.join(os.path.dirname(__file__), "data")

# --- the former scan, as the reference -------------------------------------


def reference_event(sys_: EventSystem, name: str) -> Event:
    for e in sys_.events:
        if e.name == name:
            return e
    raise ModelError(f"unknown event {name!r}")


def _systems():
    for name in sorted(f for f in os.listdir(DATA) if f.endswith(".evt")):
        yield name, load_file(os.path.join(DATA, name)).system
    for name, model in sorted(FAMILIES.items()):
        yield name, elaborate(parse(model.text)).system
    rng = random.Random(26)
    for i in range(200):
        yield f"random{i}", random_system(rng, max_states=6, max_events=6)


def _error(lookup, sys_, name) -> str:
    with pytest.raises(ModelError) as exc:
        lookup(sys_, name)
    return str(exc.value)


def test_index_finds_what_the_scan_finds():
    for label, sys_ in _systems():
        assert list(sys_.by_name) == [e.name for e in sys_.events], label
        for e in sys_.events:
            assert sys_.event(e.name) is reference_event(sys_, e.name) is e, label
        for unknown in ("ghost", "", sys_.events[0].name + " "):
            expected = _error(reference_event, sys_, unknown)
            assert _error(EventSystem.event, sys_, unknown) == expected == f"unknown event {unknown!r}"


def test_duplicate_names_raise_the_same_error():
    sp = make_space(2)
    e = Event("e", sp.universe(), ((0, 0b11),))
    twin = Event("e", sp.from_indices([0]), ((1, 0b01),))  # another event of the same name
    for events in ([e, e], [e, twin], [twin, Event("f", sp.universe(), ((0, 0b11),)), e]):
        with pytest.raises(ModelError) as exc:
            EventSystem(sp, events, sp.universe())
        assert str(exc.value) == "duplicate event names"


def test_unknown_via_keeps_its_text_and_position():
    text = ("system s\nvar x : 0 .. 1\ninit x = 0\nevent e then x := 1\n"
            "property ok : ensures {x = 0} {x = 1} via e under wf\n"
            "property p : ensures {x = 0} {x = 1} via ghost under wf\n")
    with pytest.raises(DslError) as exc:
        elaborate(parse(text))
    assert str(exc.value) == "6:1: property 'p' names unknown event 'ghost'"
    assert (exc.value.line, exc.value.col) == (6, 1)
    assert [p.via for p in elaborate(parse(text.rsplit("property p", 1)[0])).properties] == ["e"]


class _CountingEvents(tuple):
    """A tuple of events that counts the loops over it."""

    loops = 0

    def __iter__(self):
        self.loops += 1
        return super().__iter__()


def _leaves(cert):
    if isinstance(cert, Basic):
        return [cert]
    parts = cert.parts if isinstance(cert, Disj) else cert.links
    return [leaf for part in parts for leaf in _leaves(part)]


def test_checking_a_wf_certificate_loops_over_the_events_a_bounded_number_of_times():
    # x : 0 .. 2000 and 2000 events, e{i} x := 0 at x = i + 1: {true} leads to
    # {x = 0} under wf in one layer, each event's leaf adding its own state
    sp = make_space(2001)
    events = [Event(f"e{i}", sp.from_indices([i + 1]), ((-i - 1, 1 << i + 1),)) for i in range(2000)]
    sys_ = EventSystem(sp, events, sp.universe())
    a, b = sp.universe(), sp.from_indices([0])
    verdict = leadsto_wf(sys_, a, b)
    cert = derive_certificate_wf(sys_, a, b, verdict.trace, verdict.fair_deltas)
    leaves = _leaves(cert)
    assert len(leaves) == 2001 and {leaf.helpful for leaf in leaves} == set(sys_.by_name)
    sys_.events = events = _CountingEvents(sys_.events)
    assert check_certificate(sys_, cert, (a, b), "wf")
    assert events.loops <= 1  # the scan looped once per leaf
