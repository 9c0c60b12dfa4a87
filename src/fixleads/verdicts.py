"""Verdict values returned by every property check."""
from __future__ import annotations

from .records import Record
from .states import StateSet
from .events import IterateTrace


class Verdict(Record):
    """``relation`` is 'T_m' | 'T_w' | 'E_m' | 'E_w' | 'rule-mp-variant' | 'rule-wf-to-mp'.

    ``fair_deltas`` is the per-iterate evidence of ``leadsto_wf``
    (``wf.fair_deltas`` of each iterate), which ``explain`` reads; it is
    never part of the report."""

    __slots__ = ("holds", "relation", "trace", "details", "fair_deltas")

    def __init__(self, holds: bool, relation: str, trace: IterateTrace | None = None,
                 details: dict | None = None, fair_deltas: tuple | None = None):
        self.holds = holds
        self.relation = relation
        self.trace = trace
        self.details = {} if details is None else details
        self.fair_deltas = fair_deltas

    @property
    def fixpoint(self) -> StateSet | None:  # the trace's last iterate
        return None if self.trace is None else self.trace.value

    def to_json(self) -> dict:
        """The report entry, with every set still a :class:`StateSet`, which
        the report's set table (``states.set_table``) turns into an index."""
        out = {"holds": self.holds, "relation": self.relation}
        if self.trace is not None:
            out["fixpoint"] = self.fixpoint
            out["trace"] = self.trace.to_json()
        if self.details:
            out["details"] = dict(self.details)
        return out


class SelfCheckDefect(Exception):
    """A rule's antecedents passed but the direct fixpoint verdict disagrees."""
