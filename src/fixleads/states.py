"""Finite state universe enumeration and the bitset algebra over it.

A :class:`StateSpace` numbers every assignment of the declared variables by
one arithmetic codec, with no table of states: mixed radix, first declared
variable least significant, so a state *is* its index.  An invariant only
restricts the universe: it is the mask ``full_mask`` over that index, which
may have holes.  All set values downstream are :class:`StateSet` bitmasks.
"""
from __future__ import annotations

import math
import re
import warnings
from array import array
from itertools import compress, count
from collections.abc import Callable, Iterator, Sequence

from .exprs import (BOOLS, EvalError, Expr, Key, Partition, Undecided, Value, eval_expr,
                    eval_partition, names_in)
from .records import Frozen, setfield

DEFAULT_STATE_CAP = 1 << 20
WARN_STATE_THRESHOLD = 1 << 16

# One bound, _bound(care), picks pairing or table for an expression and lift
# or pass for a table: a pair or a lifted assignment costs a full-width AND, a
# pass PAIRING ANDs of a 64-bit word per state.  On lattice 2 x m, m = 127-255
# (Python 3.11): an AND 1.3-3 ns a word, a pass 0.4-1.1 us a state that shares
# its key (inc), 3.5-4.7 us one that does not (togo), so even at 350 and 3000.
PAIRING = 1000


class SpaceError(Exception):
    """State-space construction failure: cap exceeded, empty universe, bad decls."""


class SpaceMismatch(Exception):
    """Operands of a set operation belong to different state spaces."""


class VarDecl(Frozen):
    __slots__ = ("name", "domain")

    def __init__(self, name: str, domain: tuple[Value, ...]):
        if not domain:
            raise SpaceError(f"variable {name!r} has an empty domain")
        if len(set(domain)) != len(domain):
            raise SpaceError(f"variable {name!r} has duplicate domain values")
        setfield(self, "name", name)
        setfield(self, "domain", domain)


class StateSpace:
    """Immutable enumeration of all states, each at its mixed-radix index.

    ``size`` counts the states: the indices inside ``full_mask``, out of
    ``raw_size``.  The raw state ``i`` gives each variable the value
    ``domain[i // stride % len(domain)]``, and a row of values is the sum of
    their ``offsets``: each variable maps its ``(type, value)`` keys to
    their position in its domain times its stride.  ``value_masks`` holds,
    for each variable, the partition of the raw index by its value,
    ``{(type, value): mask}``, or ``None`` past both 64 and ``sqrt(N)``
    values, ``N`` the raw states.  :meth:`partition` evaluates from them, or by
    :meth:`table` where some state raises, a variable has none or a pairing
    of blocks costs more than one pass over the states (``PAIRING``); an
    event's offset classes are the table of its moves (:meth:`action_classes`)."""

    def __init__(
        self,
        vars: Sequence[VarDecl],
        invariant: Expr | None = None,
        cap: int = DEFAULT_STATE_CAP,
    ):
        if len({v.name for v in vars}) != len(vars):
            raise SpaceError("duplicate variable names")
        if not vars:
            raise SpaceError("at least one variable is required")
        raw = math.prod(len(v.domain) for v in vars)
        if raw > cap:
            raise SpaceError(f"state space has {raw} raw states, cap is {cap}")
        if raw > WARN_STATE_THRESHOLD:
            warnings.warn(
                f"state space has {raw} raw states; fixpoint checks may be slow",
                stacklevel=2,
            )
        self.vars: tuple[VarDecl, ...] = tuple(vars)
        self.raw_size: int = raw
        self.constants: frozenset = frozenset(
            val for v in vars for val in v.domain if isinstance(val, str)
        )
        # mixed radix, first declared variable least significant: each
        # variable's name, domain, stride and radix
        self._digits = [(v.name, v.domain, math.prod(len(w.domain) for w in vars[:k]),
                         len(v.domain)) for k, v in enumerate(vars)]
        self.offsets: dict[str, dict[Key, int]] = {
            name: {(type(val), val): p * stride for p, val in enumerate(domain)}
            for name, domain, stride, _ in self._digits
        }
        self.value_masks: dict[str, Partition | None] = {
            name: _value_masks(domain, stride, raw) if radix ** 2 <= raw or radix <= 64 else None
            for name, domain, stride, radix in self._digits
        }
        self.full_mask: int = (1 << raw) - 1
        # the bits StateSet rejects, built once: None while there are no holes,
        # where a mask's length is the test; else the complement of full_mask
        self._outside: int | None = None
        if invariant is not None:
            keep = eval_pred(self, invariant).mask
            if not keep:
                raise SpaceError("invariant leaves no states in the universe")
            self.full_mask = keep
        self.size: int = self.full_mask.bit_count()
        if self.size < raw:
            self._outside = ~self.full_mask

    def partition(self, expr: Expr, care: int | None = None) -> Partition:
        """The states of ``care`` (default all) grouped by the value of
        ``expr``, those on which it raises in ``(EvalError, text)``."""
        care = self.full_mask if care is None else care
        try:
            return eval_partition(expr, self.value_masks, self.constants, care, self._bound(care))
        except Undecided:
            return self.table(names_in(expr), lambda env: eval_expr(expr, env, self.constants), care)

    def _bound(self, care: int) -> int:  # the block pairs or lifted assignments worth one pass
        return 64 + PAIRING * care.bit_count() // ((self.raw_size + 63) >> 6)

    def table(self, names: set[str], fn: Callable[[dict], Value], care: int) -> Partition:
        """The states of ``care`` grouped by ``fn(env)``, ``env`` the values of
        the variables in ``names``, its support, as by :meth:`partition`: one
        ``fn`` call per support assignment that a state of ``care`` takes,
        errors in ``(EvalError, text)``.  Chosen before ``fn`` runs, the lift
        (:func:`_lift`) where every support variable has value masks and their
        assignments stay within the work bound, else the :meth:`_pass`."""
        support = {name: m for name, m in self.value_masks.items() if name in names}
        if None in support.values() or math.prod(map(len, support.values())) > self._bound(care):
            return self._pass(names, fn, care)
        blocks: Partition = {}
        if care:
            _lift(list(support.items()), fn, blocks, care, {})
        return blocks

    def _pass(self, names: set[str], fn: Callable[[dict], Value], care: int) -> Partition:
        """:meth:`table` by one lazy pass over ``care``'s :func:`bit_positions`:
        each state's key is read off the support's digits of its index, ``fn``
        is called once per key, and each block's mask is built at the end."""
        digits = [d for d in self._digits if d[0] in names]
        weights = [math.prod(d[3] for d in digits[:k]) for k in range(len(digits) + 1)]
        keyed = [(stride, radix, w) for (_, _, stride, radix), w in zip(digits, weights)]
        memo = [None] * weights[-1]  # each key's block
        blocks: dict[Key, array] = {}
        for i in bit_positions(care):
            k = 0
            for stride, radix, weight in keyed:
                k += i // stride % radix * weight
            block = memo[k]
            if block is None:
                env = {name: domain[i // stride % radix] for name, domain, stride, radix in digits}
                block = memo[k] = blocks.setdefault(_keyed(fn, env), array("q"))
            block.append(i)
        return {key: _mask_of(ix, self.raw_size) for key, ix in blocks.items()}

    def action_classes(self, support: set[str], guard: int, moves: Callable[[dict], tuple[int, ...]]
                       ) -> tuple[tuple[tuple[int, int], ...], int]:
        """The offset classes ``((d, src), ...)``, sorted by ``d``, of an event
        enabled on the mask ``guard`` that moves a state's index by each
        offset of ``moves(env)``, ``env`` the values of the variables in
        ``support``, and the mask of the states where ``moves`` raises or a
        move leaves ``full_mask``: the :meth:`table` of ``moves`` over the
        guard, its blocks merged by offset."""
        merged, bad = {}, 0  # move -> the states that take it; the states that go wrong
        for (kind, ds), m in self.table(support, moves, guard).items():
            bad |= m if kind is EvalError else 0
            for d in ds if kind is tuple else ():
                merged[d] = merged.get(d, 0) | m
        for d, src in merged.items() if self.size < self.raw_size else ():  # moves stay in raw_size
            bad |= src & ~(self.full_mask >> d if d >= 0 else self.full_mask << -d)
        return tuple(sorted(merged.items())), bad

    def index_of(self, assignment: dict) -> int:
        return self.index_of_row(tuple(assignment[v.name] for v in self.vars))

    def index_of_row(self, values: Sequence[Value]) -> int:
        """Index of the state whose values, in declaration order, are ``values``:
        the sum of their offsets, each of the type it has in its domain, so
        neither ``False`` nor ``1.0`` names a state of an int variable."""
        i = self._encode(values)
        if i is None:
            raise SpaceError(f"values {list(values)!r} are not a state")
        return i

    def _encode(self, row: Sequence[Value]) -> int | None:
        # None for a wrong width, a value outside its domain or a hole
        try:
            i = sum([offset[type(val), val]
                     for offset, val in zip(self.offsets.values(), row, strict=True)])
        except (KeyError, TypeError, ValueError):
            return None
        return i if self.full_mask >> i & 1 else None

    def state_of(self, index: int) -> dict:
        return {name: domain[index // stride % radix] for name, domain, stride, radix in self._digits}

    def empty(self) -> "StateSet":
        return StateSet(self, 0)

    def universe(self) -> "StateSet":
        return StateSet(self, self.full_mask)

    def from_indices(self, indices) -> "StateSet":
        """The states at ``indices``; walked one by one only to name a bad one."""
        indices = list(indices)
        if not indices or 0 <= min(indices) and max(indices) < self.raw_size:
            mask = _mask_of(indices, self.raw_size)
            if not mask & ~self.full_mask:
                return StateSet(self, mask)
        bad = next(i for i in indices if i < 0 or not self.full_mask >> i & 1)
        raise SpaceError(f"state index {bad} is outside the universe")

    def __repr__(self):
        decls = ", ".join(v.name for v in self.vars)
        return f"StateSpace({decls}; {self.size} states)"


_BITS = bytes.maketrans(b"01", b"\0\1")  # a mask's binary digits as 0 and 1 bytes


def _mask_of(indices: Sequence[int], width: int) -> int:
    # set in bytes: or-ing each bit into an int would cost the int's width
    buf = bytearray((width + 7) >> 3)
    for i in indices:
        buf[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(buf, "little")


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


def _value_masks(domain: tuple[Value, ...], stride: int, raw: int) -> Partition:
    """The raw index's partition by one variable's value: value ``p`` holds
    on runs of ``stride`` states, one per ``stride * len(domain)``."""
    period = stride * len(domain)
    first = _tile((1 << stride) - 1, period, raw // period)
    return {(type(val), val): first << (p * stride) for p, val in enumerate(domain)}


# not a closure: one that calls itself is a reference cycle per table
def _lift(levels: list, fn: Callable[[dict], Value], blocks: Partition, prefix: int,
          env: dict) -> None:
    """:meth:`StateSpace.table`'s lift: a depth-first product over ``levels``,
    the support's ``(name, value masks)`` in declaration order, ``env`` the
    values chosen so far and ``prefix`` the states asked for that take them.
    A prefix whose mask is empty is dropped; each full assignment is one
    ``fn`` call, whose block ``prefix`` joins ``blocks``."""
    if len(env) == len(levels):
        key = _keyed(fn, env)
        blocks[key] = blocks.get(key, 0) | prefix
        return
    name, masks = levels[len(env)]
    for (_, val), mask in masks.items():
        if block := prefix & mask:
            _lift(levels, fn, blocks, block, {**env, name: val})


def _keyed(fn: Callable[[dict], Value], env: dict) -> Key:
    """The block key of ``fn(env)``: its value's, or ``(EvalError, text)``."""
    try:
        val = fn(env)
        return type(val), val
    except EvalError as exc:
        return EvalError, str(exc)


_ONE = re.compile("1")
_FEW = 40  # a peel costs three full-width operations a member: the scan wins past 26-40
_SPARSE = 4  # sparse: under 1 / _SPARSE of the width set, where the scan beats the byte pass


def bit_positions(mask: int) -> Iterator[int]:
    """The positions of the set bits of ``mask``, ascending, lazily: the one
    reader of a set's members.  A sparse mask of at most ``_FEW`` members is
    peeled lowest bit first, a longer one read off the ``bin`` text of the
    mask shifted down to its lowest member by a regex scan, which skips runs
    of zeros in C, so it costs the members' span, not the width, and a dense
    one by one byte pass over the whole text, where the scan's cost per
    match loses."""
    members = mask.bit_count()
    sparse = members * _SPARSE < mask.bit_length()
    if sparse and members <= _FEW:
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return iter(out)
    if sparse:
        low = (mask & -mask).bit_length() - 1
        return map(low.__add__, map(re.Match.start, _ONE.finditer(bin(mask >> low)[:1:-1])))
    return compress(count(), bin(mask)[:1:-1].encode().translate(_BITS))


class StateSet(Frozen):
    """An immutable subset of a state space, stored as a bitmask.  Equality
    and hashing look at ``mask`` only."""

    __slots__ = ("space", "mask")

    def __init__(self, space: StateSpace, mask: int):
        outside = space._outside
        if (mask < 0 or mask.bit_length() > space.raw_size) if outside is None else mask & outside:
            raise SpaceError("mask has bits outside the universe")
        setfield(self, "space", space)
        setfield(self, "mask", mask)

    def __eq__(self, other):
        if not isinstance(other, StateSet):
            return NotImplemented
        return self.mask == other.mask

    def __hash__(self):
        return hash((self.mask,))

    def _check(self, other: "StateSet") -> None:
        if other.space is not self.space:
            raise SpaceMismatch("state sets belong to different spaces")

    def __or__(self, other: "StateSet") -> "StateSet":
        self._check(other)
        return StateSet(self.space, self.mask | other.mask)

    def __and__(self, other: "StateSet") -> "StateSet":
        self._check(other)
        return StateSet(self.space, self.mask & other.mask)

    def __sub__(self, other: "StateSet") -> "StateSet":
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

    __invert__ = complement
    __le__ = is_subset

    def __contains__(self, index: int) -> bool:
        return bool(self.mask >> index & 1)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self) -> Iterator[int]:
        """The members' indices, ascending, by :func:`bit_positions`."""
        return bit_positions(self.mask)

    def to_json(self) -> list:
        """Canonical form: sorted list of assignment objects."""
        return [self.space.state_of(i) for i in self]

    def __repr__(self):
        return f"StateSet({sorted(self)})"


def set_table(space: StateSpace, doc) -> tuple[dict, object]:
    """The ``{"vars", "sets"}`` header that names the states of a document
    of ``space``'s sets, read back by :func:`sets_from_json`, and ``doc``
    with each :class:`StateSet` replaced by its index into ``sets``, which
    stores each distinct set once.  Sets are met in document order (dict
    values in insertion order, list items in order) and numbered by size,
    then by first use.  A set that contains an earlier non-empty set is
    written as the largest such set plus its other states, ``{"base": i,
    "plus": [...]}``; any other set as the list of its states, each its
    index over ``vars``, ascending.  A chain's iterate contains the one
    before it, which is smaller, so each costs only its new states."""
    first: dict[int, int] = {}  # mask -> its first-use rank, the one hash of it
    uses: list[int] = []  # each use's first-use rank, in document order
    _mapped(doc, lambda s: uses.append(first.setdefault(s.mask, len(first))))
    by_use = list(first)
    order = sorted(range(len(by_use)), key=lambda k: by_use[k].bit_count())  # stable
    masks = [by_use[k] for k in order]
    where = sorted(range(len(order)), key=order.__getitem__)  # rank -> position in masks
    table: list = []
    for i, m in enumerate(masks):
        base = _largest_subset(masks, i)
        table.append(list(bit_positions(m)) if base is None
                     else {"base": base, "plus": list(bit_positions(m & ~masks[base]))})
    index = (where[k] for k in uses)
    return {"vars": [v.name for v in space.vars], "sets": table}, _mapped(doc, lambda s: next(index))


def sets_from_json(space: StateSpace, data: dict, rows: bool = False) -> list[StateSet]:
    """The sets of a :func:`set_table` header in ``data``, a document from
    outside the program, so any mismatch raises :class:`SpaceError`; with
    ``rows`` (certificate schemas 2 and 3) each state is its row of values,
    matched as :meth:`StateSpace.index_of_row` matches it, and a delta
    entry's are under ``rows``, not ``plus``."""
    names = [v.name for v in space.vars]
    if data.get("vars") != names:
        raise SpaceError(f"vars {data.get('vars')!r} are not the model's {names!r}")
    table = data.get("sets")
    if not isinstance(table, list):
        raise SpaceError("sets must be a list")
    key = "rows" if rows else "plus"
    sets: list[StateSet] = []
    for i, entry in enumerate(table):
        base = None
        if isinstance(entry, dict):
            if entry.keys() != {"base", key}:
                raise SpaceError(f"set {i} is neither a list nor an object of base and {key}")
            base, entry = entry["base"], entry[key]
            if type(base) is not int or not 0 <= base < i:
                raise SpaceError(f"base {base!r} of set {i} is not the index of an earlier set")
        try:
            members = _members(space, entry, rows)
        except SpaceError as e:
            raise SpaceError(f"set {i}: {e}") from None
        sets.append(members if base is None else sets[base] | members)
    return sets


def _members(space: StateSpace, entry, rows: bool) -> StateSet:
    if not rows:  # JSON integers: bool is an int subclass, and 1.0 == 1
        if not isinstance(entry, list) or not {*map(type, entry)} <= {int}:
            raise SpaceError("not a list of state indices")
        return space.from_indices(entry)
    width = len(space.vars)
    if not isinstance(entry, list) or not all(isinstance(r, list) and len(r) == width for r in entry):
        raise SpaceError(f"not a list of rows of {width} values")
    index = list(map(space._encode, entry))
    if None in index:
        raise SpaceError(f"row {entry[index.index(None)]!r} is not a state")
    return StateSet(space, _mask_of(index, space.raw_size))


def _mapped(doc, fn: Callable[[StateSet], object]):
    # doc rebuilt with fn(s) for each set s, called in document order
    if isinstance(doc, StateSet):
        return fn(doc)
    if isinstance(doc, dict):
        return {k: _mapped(v, fn) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_mapped(v, fn) for v in doc]
    return doc


def _largest_subset(masks: list[int], i: int) -> int | None:
    """The index of the largest non-empty set before ``masks[i]`` inside it,
    the latest of equal size; ``masks`` is sorted by size, and sets of
    ``masks[i]``'s size are not inside it."""
    outside = ~masks[i]
    for j in range(i - 1, -1, -1):
        if not masks[j]:
            return None  # only the empty set is left
        if not masks[j] & outside:
            return j
    return None


def eval_pred(space: StateSpace, pred: Expr) -> StateSet:
    """The set of states satisfying ``pred``; raises :class:`EvalError` at
    the lowest state where ``eval_bool`` would raise, with its text."""
    part = space.partition(pred)
    if not part.keys() <= BOOLS:
        _, (kind, val) = min((m & -m, key) for key, m in part.items() if key[0] is not bool)
        raise EvalError(val if kind is EvalError else f"expected a boolean expression, got {val!r}")
    return StateSet(space, part.get((bool, True), 0))
