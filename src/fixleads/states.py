"""Finite state universe enumeration and the bitset algebra over it.

A :class:`StateSpace` enumerates every assignment of the declared variables
(optionally filtered by an invariant predicate) and fixes a stable index
codec: mixed radix, first declared variable least significant.  All set
values downstream are :class:`StateSet` bitmasks over those indices.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence, Tuple

from .exprs import Expr, Value, eval_bool

DEFAULT_STATE_CAP = 1 << 20
WARN_STATE_THRESHOLD = 1 << 16


class SpaceError(Exception):
    """State-space construction failure: cap exceeded, empty universe, bad decls."""


class SpaceMismatch(Exception):
    """Operands of a set operation belong to different state spaces."""


@dataclass(frozen=True)
class VarDecl:
    name: str
    domain: Tuple[Value, ...]

    def __post_init__(self):
        if not self.domain:
            raise SpaceError(f"variable {self.name!r} has an empty domain")
        if len(set(self.domain)) != len(self.domain):
            raise SpaceError(f"variable {self.name!r} has duplicate domain values")


class StateSpace:
    """Immutable enumeration of all states, with a dense index per state."""

    def __init__(
        self,
        vars: Sequence[VarDecl],
        invariant: Optional[Expr] = None,
        cap: int = DEFAULT_STATE_CAP,
    ):
        names = [v.name for v in vars]
        if len(set(names)) != len(names):
            raise SpaceError("duplicate variable names")
        if not vars:
            raise SpaceError("at least one variable is required")
        raw = 1
        for v in vars:
            raw *= len(v.domain)
        if raw > cap:
            raise SpaceError(f"state space has {raw} raw states, cap is {cap}")
        if raw > WARN_STATE_THRESHOLD:
            warnings.warn(
                f"state space has {raw} raw states; fixpoint checks may be slow",
                stacklevel=2,
            )
        self.vars: Tuple[VarDecl, ...] = tuple(vars)
        self.constants: frozenset = frozenset(
            val for v in vars for val in v.domain if isinstance(val, str)
        )
        # mixed radix, first declared variable least significant
        decoded = []
        for i in range(raw):
            rem = i
            vals = []
            for v in self.vars:
                rem, pos = divmod(rem, len(v.domain))
                vals.append(v.domain[pos])
            decoded.append(tuple(vals))
        if invariant is not None:
            kept = []
            for vals in decoded:
                env = dict(zip(names, vals))
                if eval_bool(invariant, env, self.constants):
                    kept.append(vals)
            decoded = kept
            if not decoded:
                raise SpaceError("invariant leaves no states in the universe")
        self.states: Tuple[Tuple[Value, ...], ...] = tuple(decoded)
        self.size: int = len(decoded)
        self._index = {vals: i for i, vals in enumerate(decoded)}
        self.full_mask: int = (1 << self.size) - 1

    def index_of(self, assignment: dict) -> int:
        return self.index_of_row(tuple(assignment[v.name] for v in self.vars))

    def index_of_row(self, values: Sequence[Value]) -> int:
        """Index of the state whose values, in declaration order, are ``values``."""
        try:
            return self._index[tuple(values)]
        except KeyError:
            raise SpaceError(f"values {list(values)!r} are not a state") from None

    def state_of(self, index: int) -> dict:
        return dict(zip((v.name for v in self.vars), self.states[index]))

    def empty(self) -> "StateSet":
        return StateSet(self, 0)

    def universe(self) -> "StateSet":
        return StateSet(self, self.full_mask)

    def from_indices(self, indices) -> "StateSet":
        mask = 0
        for i in indices:
            if not 0 <= i < self.size:
                raise SpaceError(f"state index {i} out of range")
            mask |= 1 << i
        return StateSet(self, mask)

    def __repr__(self):
        decls = ", ".join(v.name for v in self.vars)
        return f"StateSpace({decls}; {self.size} states)"


@dataclass(frozen=True)
class StateSet:
    """An immutable subset of a state space, stored as a bitmask."""

    space: StateSpace = field(compare=False)
    mask: int

    def __post_init__(self):
        if self.mask & ~self.space.full_mask:
            raise SpaceError("mask has bits outside the universe")

    def _check(self, other: "StateSet") -> None:
        if other.space is not self.space:
            raise SpaceMismatch("state sets belong to different spaces")

    def union(self, other: "StateSet") -> "StateSet":
        self._check(other)
        return StateSet(self.space, self.mask | other.mask)

    def inter(self, other: "StateSet") -> "StateSet":
        self._check(other)
        return StateSet(self.space, self.mask & other.mask)

    def diff(self, other: "StateSet") -> "StateSet":
        self._check(other)
        return StateSet(self.space, self.mask & ~other.mask)

    def complement(self) -> "StateSet":
        return StateSet(self.space, self.mask ^ self.space.full_mask)

    def is_subset(self, other: "StateSet") -> bool:
        self._check(other)
        return self.mask & ~other.mask == 0

    def is_empty(self) -> bool:
        return self.mask == 0

    def is_universe(self) -> bool:
        return self.mask == self.space.full_mask

    __or__ = union
    __and__ = inter
    __sub__ = diff
    __invert__ = complement
    __le__ = is_subset

    def __contains__(self, index: int) -> bool:
        return bool(self.mask >> index & 1)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self) -> Iterator[int]:
        m = self.mask
        while m:
            lsb = m & -m
            yield lsb.bit_length() - 1
            m ^= lsb

    def to_json(self) -> list:
        """Canonical form: sorted list of assignment objects."""
        return [self.space.state_of(i) for i in self]

    def __repr__(self):
        return f"StateSet({sorted(self)})"


def eval_pred(space: StateSpace, pred: Expr) -> StateSet:
    """The set of states satisfying ``pred``."""
    mask = 0
    names = [v.name for v in space.vars]
    for i, vals in enumerate(space.states):
        if eval_bool(pred, dict(zip(names, vals)), space.constants):
            mask |= 1 << i
    return StateSet(space, mask)
