"""Verdict values returned by every property check."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .states import StateSet
from .transformers import IterateTrace


@dataclass
class Verdict:
    holds: bool
    relation: str  # 'T_m' | 'T_w' | 'E_m' | 'E_w' | 'rule-mp-variant' | 'rule-wf-to-mp'
    fixpoint: Optional[StateSet] = None
    trace: Optional[IterateTrace] = None
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out = {"holds": self.holds, "relation": self.relation}
        if self.fixpoint is not None:
            out["fixpoint"] = self.fixpoint.to_json()
        if self.trace is not None:
            out["trace"] = self.trace.to_json()
        if self.details:
            out["details"] = {
                k: (v.to_json() if isinstance(v, StateSet) else v)
                for k, v in self.details.items()
            }
        return out


class SelfCheckDefect(Exception):
    """A rule's antecedents passed but the direct fixpoint verdict disagrees."""
