"""Concrete syntax for a parsed specification: ``print_spec`` writes an AST
back as text that ``dsl.parse`` reads to the same AST.  Reference code that
the tests and the DSL round trip use; no command loads it."""
from __future__ import annotations

from .dsl import Assign, PropertyAst, SpecAst
from .exprs import to_text


def print_spec(ast: SpecAst) -> str:
    """Concrete syntax for an AST; parse(print_spec(parse(t))) is stable."""
    lines = [f"system {ast.name}"]
    for v in ast.vars:
        d = v.domain
        if type(d) is range:
            dom = f"{d.start} .. {d.stop - 1}"
        elif type(d[0]) is bool:
            dom = "bool"
        else:
            dom = "{" + ", ".join(d) + "}"
        lines.append(f"var {v.name} : {dom}")
    if ast.invariant is not None:
        lines.append(f"invariant {to_text(ast.invariant)}")
    if ast.init is not None:
        lines.append(f"init {to_text(ast.init)}")
    for e in ast.events:
        head = f"event {e.name}"
        if e.guard is not None:
            head += f" when {to_text(e.guard)}"
        lines.append(head + " then " + " [] ".join(_action_text(a) for a in e.actions))
    for v in ast.variants:
        lines.append(f"variant {v.name} := {to_text(v.expr)}")
    for p in ast.properties:
        lines.append(f"property {p.name} : {_prop_text(p)}")
    return "\n".join(lines) + "\n"


def _action_text(assigns: tuple[Assign, ...]) -> str:
    if not assigns:
        return "skip"
    parts = []
    for item in assigns:
        if len(item.choices) == 1:
            parts.append(f"{item.var} := {to_text(item.choices[0])}")
        else:
            opts = ", ".join(to_text(c) for c in item.choices)
            parts.append(f"{item.var} :in {{{opts}}}")
    return ", ".join(parts)


def _prop_text(p: PropertyAst) -> str:
    out = f"{p.kind} {{{to_text(p.p)}}} {{{to_text(p.q)}}}"
    if p.kind == "ensures" and p.via is not None:
        out += f" via {p.via}"
    out += f" under {p.assumption}"
    if p.kind == "leadsto":
        if p.using is not None:
            out += f" using {p.using}"
        if p.with_si:
            out += " with si"
    return out
