"""Natural-number variant functions and the variant-decrease termination rule."""
from __future__ import annotations

from typing import Callable, Dict, Optional

from .states import StateSet, StateSpace
from .transformers import lfp
from .verdicts import SelfCheckDefect, Verdict


class VariantError(Exception):
    """Variant is partial or takes a negative value."""


class VariantFn:
    """A total map from states to naturals, with its level and below sets."""

    def __init__(self, space: StateSpace, table: Dict[int, int], name: str = "variant"):
        if set(table) != set(range(space.size)):
            raise VariantError("variant must be total on the universe")
        for s, val in table.items():
            if val < 0:
                raise VariantError(
                    f"variant is negative ({val}) at state {space.state_of(s)!r}"
                )
        self.space = space
        self.table = dict(table)
        self.name = name
        self.max_value = max(table.values())
        self._levels: Dict[int, int] = {}
        for s, val in table.items():
            self._levels[val] = self._levels.get(val, 0) | (1 << s)

    @classmethod
    def from_function(cls, space: StateSpace, fn: Callable[[dict], int], name: str = "variant"):
        return cls(space, {i: fn(space.state_of(i)) for i in range(space.size)}, name)

    def value_at(self, state_index: int) -> int:
        return self.table[state_index]

    def level_set(self, n: int) -> StateSet:
        """States whose variant value is exactly ``n``."""
        return StateSet(self.space, self._levels.get(n, 0))

    def below_set(self, n: int) -> StateSet:
        """States whose variant value is strictly below ``n``."""
        mask = 0
        for val, m in self._levels.items():
            if val < n:
                mask |= m
        return StateSet(self.space, mask)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "values": [
                {"state": self.space.state_of(i), "value": self.table[i]}
                for i in range(self.space.size)
            ],
        }


def first_failing_level(
    p: StateSet, variant: VariantFn, step: Callable[[StateSet], StateSet]
) -> Optional[dict]:
    """The lowest variant level ``n`` at which some state of ``p`` does not
    ``step`` strictly below ``n``, as ``{"n", "states"}``, or None."""
    # only the values the variant takes: the levels between them hold no state
    # and pass vacuously, and counting up to a large maximum would never end
    for n in sorted(variant._levels):
        lhs = p & variant.level_set(n)
        rhs = step(variant.below_set(n))
        if not lhs.is_subset(rhs):
            return {"n": n, "states": (lhs - rhs).to_json()}
    return None


def check_variant_theorem(
    f: Callable[[StateSet], StateSet],
    p: StateSet,
    variant: VariantFn,
) -> Verdict:
    """Check the variant-decrease conditions for ``p`` lying inside lfp(f).

    ``f`` must be monotone and conjunctive.  Antecedents: each level of the
    variant inside ``p`` maps under ``f`` into the strictly-lower levels, and
    ``p`` is invariant under ``f``.  On success the conclusion is verified
    directly and a disagreement raises a defect.
    """
    space = p.space
    failing = first_failing_level(p, variant, f)
    invariant_ok = p.is_subset(f(p))
    holds = failing is None and invariant_ok
    v = Verdict(holds=holds, relation="variant-theorem")
    if failing is not None:
        v.details["failing_level"] = failing
    if not invariant_ok:
        v.details["not_invariant"] = (p - f(p)).to_json()
    if holds:
        fix, trace = lfp(f, space)
        if not p.is_subset(fix):
            raise SelfCheckDefect("variant antecedents passed but p is not in lfp(f)")
        v.fixpoint = fix
        v.trace = trace
    return v
