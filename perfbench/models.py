"""Seeded generators for the benchmark's model families.

Every generator returns a :class:`Model`: the `.evt` source and a map from
property name to the verdict that follows from how the model is built,
never from running the engine under test.  The seed picks which process or
counter the properties watch and the order in which events are declared;
it never changes the number of states or transitions.

Families
--------
ring(n)          token ring: ``x_i : 0..2`` (idle, waiting, critical) and a
                 token ``t``.  ``pass_i`` moves the token only while process
                 ``i`` is idle, so the token reaches a waiting process and
                 stays until it has entered.
ring(n, starve)  as above, but ``pass_i`` is also enabled while process
                 ``i`` waits, so it can be passed over forever, even fairly.
lattice(k, m)    ``k`` counters over ``0..m``, one ``inc`` event each; every
                 step raises the sum, so every run ends at the top.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Tuple


@dataclass(frozen=True)
class Model:
    name: str
    text: str
    expected: Dict[str, bool]  # property name -> holds


def ring(n: int, seed: int, starve: bool = False, assume: Tuple[str, ...] = ()) -> Model:
    """Token ring of ``n`` processes: ``3**n * n`` states, ``4 * n`` events.

    For each ``a`` in ``assume`` (``mp``, ``wf`` or ``wf-si``) one property
    ``enter_<a>`` on the watched process ``w``: ``x_w = 1`` leads to
    ``x_w = 2``.  It holds in the plain ring under every assumption: apart
    from the one-shot ``try`` events only the token holder can move, and it
    hands the token on within three of its own steps, so the token reaches
    ``w``, which keeps it until ``enter_w`` runs.  (In unreachable states a
    critical process without the token may ``leave`` and move it, but it
    needs the token back to become critical again, so that happens finitely
    often.)  In the starving ring it fails under every assumption, because
    ``pass_w`` can take the token away each time.
    """
    rng = random.Random(f"ring/{n}/{starve}/{seed}")
    w = rng.randrange(n)
    name = f"{'starve' if starve else 'ring'}{n}"
    lines = [f"system {name}"]
    lines += [f"var x{i} : 0 .. 2" for i in range(n)]
    lines.append(f"var t : 0 .. {n - 1}")
    lines.append("init " + " and ".join([f"x{i} = 0" for i in range(n)] + ["t = 0"]))
    events = []
    for i in range(n):
        nxt = (i + 1) % n
        waits = f"x{i} != 2" if starve else f"x{i} = 0"
        events += [
            f"event try{i} when x{i} = 0 then x{i} := 1",
            f"event enter{i} when x{i} = 1 and t = {i} then x{i} := 2",
            f"event leave{i} when x{i} = 2 then x{i} := 0, t := {nxt}",
            f"event pass{i} when {waits} and t = {i} then t := {nxt}",
        ]
    rng.shuffle(events)
    lines += events
    expected = {}
    for a in assume:
        under = "wf" if a.startswith("wf") else "mp"
        si = " with si" if a.endswith("-si") else ""
        prop = f"enter_{a.replace('-', '_')}"
        lines.append(f"property {prop} : leadsto {{x{w} = 1}} {{x{w} = 2}} under {under}{si}")
        expected[prop] = not starve
    return Model(name, "\n".join(lines) + "\n", expected)


def lattice(k: int, m: int, seed: int) -> Model:
    """``k`` counters over ``0..m``: ``(m + 1)**k`` states, ``k`` events.

    Every property targets the watched counter ``c_w = m`` under mp and
    holds: ``inc_w`` is enabled until the target is reached and every event
    raises the sum of the counters, so no run avoids the target forever.
    ``togo`` (the distance of the sum from the top) drops by one on every
    event, which is what the ``using`` rule needs.
    """
    rng = random.Random(f"lattice/{k}/{m}/{seed}")
    w = rng.randrange(k)
    name = f"lattice{k}x{m}"
    lines = [f"system {name}"]
    lines += [f"var c{i} : 0 .. {m}" for i in range(k)]
    lines.append("init " + " and ".join(f"c{i} = 0" for i in range(k)))
    events = [f"event inc{i} when c{i} < {m} then c{i} := c{i} + 1" for i in range(k)]
    rng.shuffle(events)
    lines += events
    lines.append("variant togo := " + " + ".join(f"({m} - c{i})" for i in range(k)))
    target = f"c{w} = {m}"
    lines += [
        f"property top : leadsto {{true}} {{{target}}} under mp",
        f"property top_si : leadsto {{true}} {{{target}}} under mp with si",
        f"property top_by_variant : leadsto {{true}} {{{target}}} under mp using togo",
    ]
    expected = {"top": True, "top_si": True, "top_by_variant": True}
    return Model(name, "\n".join(lines) + "\n", expected)
