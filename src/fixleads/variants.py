"""Natural-number variant functions, held as their levels, and the
variant-decrease rule, which walks the levels once in ascending order."""
from __future__ import annotations

from collections.abc import Callable

from .states import StateSet, StateSpace
from .verdicts import SelfCheckDefect, Verdict


class VariantError(Exception):
    """Variant levels that are partial, overlapping, empty or negative."""


class VariantFn:
    """A total map from states to naturals, held as its level sets."""

    @classmethod
    def from_levels(cls, space: StateSpace, levels: dict[int, int], name: str = "variant"):
        """The variant whose level ``n`` is the mask ``levels[n]``: non-empty,
        disjoint masks covering the universe, for naturals ``n``."""
        union = 0
        for val, mask in levels.items():
            if val < 0 or not mask or union & mask:
                raise VariantError("variant levels must be disjoint, non-empty and natural")
            union |= mask
        if union != space.full_mask:
            raise VariantError("variant must be total on the universe")
        variant = cls.__new__(cls)
        variant.space = space
        variant.name = name
        variant._levels = dict(levels)
        return variant


def variant_antecedents(
    p: StateSet, variant: VariantFn, step: Callable[[StateSet], StateSet], image: StateSet
) -> dict:
    """The failed antecedents of a variant rule for ``p``, by ``details`` key:
    ``failing_level``, the lowest variant level ``n`` at which some state of
    ``p`` does not ``step`` strictly below ``n``, as ``{"n", "states"}``, and
    ``not_invariant``, the states of ``p`` outside ``image``."""
    details = {}
    space = variant.space
    below = 0  # the union of the levels passed so far: the states below ``n``
    # only the values the variant takes: the levels between them hold no state
    # and pass vacuously, and counting up to a large maximum would never end
    for n, level in sorted(variant._levels.items()):
        lhs = p & StateSet(space, level)
        rhs = step(StateSet(space, below))
        if not lhs.is_subset(rhs):
            details["failing_level"] = {"n": n, "states": lhs - rhs}
            break
        below |= level
    if not p.is_subset(image):
        details["not_invariant"] = p - image
    return details


def rule_verdict(
    relation: str, holds: bool, details: dict, direct: Callable[[], Verdict]
) -> Verdict:
    """The verdict of a sufficient rule whose antecedents ``holds``, with the
    failed ones in ``details``.  When they hold, the conclusion is verified
    against ``direct()``, the direct fixpoint verdict, whose trace (and so
    fixpoint) the verdict carries; a disagreement is a defect, not a verdict."""
    v = Verdict(holds=holds, relation=relation, details=details)
    if holds:
        conclusion = direct()
        if not conclusion.holds:
            raise SelfCheckDefect(f"{relation}: antecedents passed but the conclusion fails")
        v.trace = conclusion.trace
    return v
