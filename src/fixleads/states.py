"""Finite state universe enumeration and the bitset algebra over it.

A :class:`StateSpace` enumerates every assignment of the declared variables
and fixes a stable index codec: mixed radix, first declared variable least
significant.  An invariant predicate only restricts the universe: it is the
mask ``full_mask`` over that index, which may have holes.  All set values
downstream are :class:`StateSet` bitmasks inside it.
"""
from __future__ import annotations

import itertools
import math
import warnings
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .exprs import Expr, Partition, Undecided, Value, eval_bool, eval_partition, true_mask
from .records import Frozen, setfield

DEFAULT_STATE_CAP = 1 << 20
WARN_STATE_THRESHOLD = 1 << 16


class SpaceError(Exception):
    """State-space construction failure: cap exceeded, empty universe, bad decls."""


class SpaceMismatch(Exception):
    """Operands of a set operation belong to different state spaces."""


class VarDecl(Frozen):
    __slots__ = ("name", "domain")

    def __init__(self, name: str, domain: Tuple[Value, ...]):
        if not domain:
            raise SpaceError(f"variable {name!r} has an empty domain")
        if len(set(domain)) != len(domain):
            raise SpaceError(f"variable {name!r} has duplicate domain values")
        setfield(self, "name", name)
        setfield(self, "domain", domain)


class StateSpace:
    """Immutable enumeration of all states, each at its mixed-radix index.

    ``size`` counts the states: the indices inside ``full_mask``, out of
    ``raw_size``.  Besides the states, a space keeps ``value_masks``: for
    each variable, the partition of the raw index by its value,
    ``{(type, value): mask}`` in domain order (see
    :func:`exprs.eval_partition`), the leaves from which
    :meth:`partition` evaluates an expression on every state at once.  Its
    one bound is the raw state count ``N``, the product of the domain sizes:
    a variable with more than ``sqrt(N)`` values has no masks (``None``), so
    one variable's masks never take more than ``N**1.5`` bits, and no
    operator pairs more than ``N`` blocks; an expression past either bound
    takes the per-state path."""

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
        self.raw_size: int = raw
        self.constants: frozenset = frozenset(
            val for v in vars for val in v.domain if isinstance(val, str)
        )
        # mixed radix, first declared variable least significant
        self._stride: Dict[str, int] = {
            v.name: math.prod(len(w.domain) for w in vars[:k]) for k, v in enumerate(vars)
        }
        self.value_masks: Dict[str, Optional[Partition]] = {
            v.name: _value_masks(v.domain, self._stride[v.name], raw)
            if len(v.domain) ** 2 <= raw else None
            for v in self.vars
        }
        self.full_mask: int = (1 << raw) - 1
        if invariant is not None:
            try:
                keep = true_mask(self.partition(invariant))
            except Undecided:
                keep = 0
                for i, vals in enumerate(self.states):
                    if eval_bool(invariant, dict(zip(names, vals)), self.constants):
                        keep |= 1 << i
            if not keep:
                raise SpaceError("invariant leaves no states in the universe")
            self.full_mask = keep
        self.size: int = self.full_mask.bit_count()

    @cached_property
    def states(self) -> Tuple[Tuple[Value, ...], ...]:
        """The values of each raw state, in declaration order, by index; the
        indices outside ``full_mask`` name no state."""
        return tuple(t[::-1] for t in itertools.product(*(v.domain for v in reversed(self.vars))))

    @cached_property
    def _index(self) -> Dict[Tuple[Value, ...], int]:
        states = self.states
        return {states[i]: i for i in bit_positions(self.full_mask)}

    def partition(self, expr: Expr, care: Optional[int] = None) -> Partition:
        """The states of ``care`` (default all) grouped by the value of
        ``expr``; raises :class:`Undecided` where the partition evaluator
        cannot decide it, and the caller falls back to a per-state loop."""
        care = self.full_mask if care is None else care
        return eval_partition(expr, self.value_masks, self.constants, care, self.raw_size)

    def action_classes(
        self, branches: Sequence[Sequence[Tuple[str, Sequence[Expr]]]], guard: int
    ) -> Tuple[Tuple[int, int], ...]:
        """The offset classes ``((d, src), ...)``, sorted by ``d``, of an event
        enabled on the mask ``guard`` that runs one of ``branches``, each a
        list of parallel assignments ``(variable, choices)`` setting the
        variable to one of the expressions' values, with no per-state step.

        On the raw index, setting ``x`` from ``u`` to ``v`` moves a state by
        ``(pos v - pos u) * stride x``: each assignment partitions the guard
        by its move, parallel assignments add their moves and the choices and
        branches take the union.  Raises :class:`Undecided` where the
        partitions cannot decide some assignment on the guard, and
        :class:`SpaceError` when a class moves some state outside
        ``full_mask``; the per-state loop then reports the error."""
        if not guard:
            return ()
        merged: Dict[int, int] = {}  # move -> the states that take it
        for assigns in branches:
            moves = {0: guard}
            for var, choices in assigns:
                old = self.value_masks.get(var)
                if old is None:  # undeclared, or without value masks
                    raise Undecided(f"no value masks for {var!r}")
                pos = {key: p for p, key in enumerate(old)}
                step: Dict[int, int] = {}
                for expr in choices:
                    for key, m in self.partition(expr, guard).items():
                        if key not in pos:
                            raise Undecided(f"{var} := {key[1]!r} is outside its domain")
                        for p, old_mask in enumerate(old.values()):
                            moved = m & old_mask
                            if moved:
                                d = (pos[key] - p) * self._stride[var]
                                step[d] = step.get(d, 0) | moved
                if len(moves) * len(step) > self.raw_size:
                    raise Undecided("partition larger than the state count")
                moves = _add_moves(moves, step)
            for d, m in moves.items():
                merged[d] = merged.get(d, 0) | m
        for d, src in merged.items():
            if (src << d if d >= 0 else src >> -d) & ~self.full_mask:
                raise SpaceError(f"offset {d} leaves the invariant")
        return tuple(sorted(merged.items()))

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
            if i < 0 or not self.full_mask >> i & 1:
                raise SpaceError(f"state index {i} is outside the universe")
            mask |= 1 << i
        return StateSet(self, mask)

    def __repr__(self):
        decls = ", ".join(v.name for v in self.vars)
        return f"StateSpace({decls}; {self.size} states)"


def _tile(block: int, width: int, count: int) -> int:
    """``count`` copies of ``block``, each ``width`` bits above the last, by
    doubling."""
    out = shift = 0
    while count:
        if count & 1:
            out |= block << shift
            shift += width
        block |= block << width
        width *= 2
        count >>= 1
    return out


def _value_masks(domain: Tuple[Value, ...], stride: int, raw: int) -> Partition:
    """The raw index's partition by one variable's value: value ``p`` holds
    on runs of ``stride`` states, one per ``stride * len(domain)``."""
    period = stride * len(domain)
    first = _tile((1 << stride) - 1, period, raw // period)
    return {(type(val), val): first << (p * stride) for p, val in enumerate(domain)}


def _add_moves(a: Dict[int, int], b: Dict[int, int]) -> Dict[int, int]:
    """``{d1 + d2: ma & mb}``: the moves of two assignments made in parallel."""
    out: Dict[int, int] = {}
    for d1, m1 in a.items():
        for d2, m2 in b.items():
            m = m1 & m2
            if m:
                out[d1 + d2] = out.get(d1 + d2, 0) | m
    return out


def bit_positions(mask: int) -> List[int]:
    """The positions of the set bits of ``mask``, ascending."""
    return [i for i, c in enumerate(bin(mask)[:1:-1]) if c == "1"]


def peel_positions(mask: int) -> Iterator[int]:
    """:func:`bit_positions` by peeling the lowest bit: cheaper on sparse masks."""
    while mask:
        lsb = mask & -mask
        yield lsb.bit_length() - 1
        mask ^= lsb


class StateSet(Frozen):
    """An immutable subset of a state space, stored as a bitmask.  Equality
    and hashing look at ``mask`` only."""

    __slots__ = ("space", "mask")

    def __init__(self, space: StateSpace, mask: int):
        if mask & ~space.full_mask:
            raise SpaceError("mask has bits outside the universe")
        setfield(self, "space", space)
        setfield(self, "mask", mask)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.mask == other.mask

    def __hash__(self):
        return hash((self.mask,))

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
        # a peeling step costs a full-width big-integer operation, about
        # (width + 2048) / 1024 times a bit_positions step per bit of width
        m = self.mask
        width = m.bit_length()
        if m.bit_count() * (width + 2048) < width << 10:
            return peel_positions(m)
        return iter(bit_positions(m))

    def to_json(self) -> list:
        """Canonical form: sorted list of assignment objects."""
        return [self.space.state_of(i) for i in self]

    def __repr__(self):
        return f"StateSet({sorted(self)})"


def eval_pred(space: StateSpace, pred: Expr) -> StateSet:
    """The set of states satisfying ``pred``."""
    mask = 0
    names = [v.name for v in space.vars]
    for i in bit_positions(space.full_mask):
        if eval_bool(pred, dict(zip(names, space.states[i])), space.constants):
            mask |= 1 << i
    return StateSet(space, mask)
