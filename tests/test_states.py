"""State space enumeration, the index codec, and bitset algebra."""
import os
import random
import re
import tracemalloc
from itertools import compress

import pytest
from hypothesis import given, settings, strategies as st

from fixleads import load_file, states
from fixleads.exprs import And, BoolLit, Cmp, IntLit, Name
from fixleads.states import (
    SpaceError,
    SpaceMismatch,
    StateSet,
    StateSpace,
    VarDecl,
    bit_positions,
    eval_pred,
    sets_from_json,
)

from conftest import make_space, raw_states, reference_bit_positions, reference_full_width_scan


def test_first_declared_variable_is_least_significant():
    sp = StateSpace([VarDecl("a", (0, 1)), VarDecl("b", (0, 1, 2))])
    assert sp.size == 6
    # index = a + 2*b
    assert sp.state_of(0) == {"a": 0, "b": 0}
    assert sp.state_of(1) == {"a": 1, "b": 0}
    assert sp.state_of(2) == {"a": 0, "b": 1}
    assert sp.state_of(5) == {"a": 1, "b": 2}
    for i in range(6):
        assert sp.index_of(sp.state_of(i)) == i


def test_mixed_domains():
    sp = StateSpace([VarDecl("flag", (False, True)), VarDecl("c", ("red", "green"))])
    assert sp.size == 4
    assert sp.constants == {"red", "green"}
    assert sp.state_of(3) == {"flag": True, "c": "green"}


def test_invariant_is_the_universe_mask_over_the_raw_index():
    sp = StateSpace(
        [VarDecl("x", (0, 1, 2, 3))],
        invariant=Cmp("!=", Name("x"), IntLit(1)),
    )
    assert sp.size == 3
    assert sp.state_of(2) == {"x": 2}
    # the raw index 1 is a hole: it names no state
    with pytest.raises(SpaceError):
        sp.index_of({"x": 1})
    with pytest.raises(SpaceError):
        sp.from_indices([1])
    with pytest.raises(SpaceError, match="mask has bits outside the universe"):
        StateSet(sp, 0b10)
    assert sp.empty().complement().mask == 0b1101


@pytest.mark.parametrize("model", ["ring3", "triangle3"])  # no holes, and holes (c1 > c0)
def test_a_mask_outside_the_universe_raises(model):
    sp = load_file(os.path.join(os.path.dirname(__file__), "data", model + ".evt")).system.space
    assert StateSet(sp, sp.full_mask).mask == sp.full_mask
    bad = [1 << sp.raw_size, (1 << sp.raw_size) | sp.full_mask, -1, -sp.full_mask]
    if model == "triangle3":
        assert sp.size < sp.raw_size and not sp.full_mask >> 4 & 1
        bad.append(1 << 4)
    for mask in bad:
        with pytest.raises(SpaceError, match="mask has bits outside the universe"):
            StateSet(sp, mask)


@pytest.mark.parametrize("bad", [-1, -9, 4, 1])  # negative, raw_size and past it, a hole
def test_from_indices_names_the_first_index_outside_the_universe(bad):
    sp = StateSpace([VarDecl("x", (0, 1, 2, 3))], invariant=Cmp("!=", Name("x"), IntLit(1)))
    assert sp.from_indices(iter([3, 0, 2, 0])).mask == 0b1101
    assert sp.from_indices([]).is_empty()
    with pytest.raises(SpaceError, match=rf"^state index {bad} is outside the universe$"):
        sp.from_indices([0, bad, 3, -2])


def test_unsatisfiable_invariant_rejected():
    with pytest.raises(SpaceError):
        StateSpace([VarDecl("x", (0, 1))], invariant=Cmp("<", Name("x"), IntLit(0)))


def test_bad_declarations():
    with pytest.raises(SpaceError, match="variable 'x' has an empty domain"):
        VarDecl("x", ())
    with pytest.raises(SpaceError, match="variable 'x' has duplicate domain values"):
        VarDecl("x", (1, 1))
    with pytest.raises(SpaceError):
        StateSpace([VarDecl("x", (0,)), VarDecl("x", (1,))])
    with pytest.raises(SpaceError):
        StateSpace([])


def test_cap_enforced():
    with pytest.raises(SpaceError):
        StateSpace([VarDecl("x", tuple(range(100)))], cap=64)


def test_warning_above_threshold():
    big = tuple(range((1 << 16) + 1))
    with pytest.warns(UserWarning, match="raw states"):
        StateSpace([VarDecl("x", big)])


def test_set_operations():
    sp = make_space(4)
    a = sp.from_indices([0, 1])
    b = sp.from_indices([1, 2])
    assert sorted(a | b) == [0, 1, 2]
    assert sorted(a & b) == [1]
    assert sorted(a - b) == [0]
    assert sorted(~a) == [2, 3]
    assert a.is_subset(sp.universe())
    assert not sp.universe().is_subset(a)
    assert sp.empty().is_empty()
    assert sp.universe().is_universe()
    assert len(a) == 2 and 0 in a and 2 not in a


def test_space_mismatch_rejected():
    a = make_space(3).universe()
    b = make_space(3).universe()
    with pytest.raises(SpaceMismatch):
        a | b


def test_to_json_is_canonical():
    sp = make_space(3)
    s = sp.from_indices([2, 0])
    assert s.to_json() == [{"x": 0}, {"x": 2}]


def test_iteration_paths_agree_in_ascending_order():
    dense = make_space(3000)
    holes = make_space(3000, holes=range(0, 3000, 7))
    sets = [
        dense.empty(),
        dense.from_indices([2999, 0, 1234]),  # few: peeled
        dense.from_indices(range(0, 3000, 10)),  # sparse: regex scan
        dense.universe(),  # dense: byte pass
        StateSet(dense, int("10" * 1500, 2)),
        holes.universe(),
    ]
    for s in sets:
        expected = [i for i in range(s.mask.bit_length()) if s.mask >> i & 1]
        assert list(bit_positions(s.mask)) == expected
        assert list(s) == expected


# each regime of bit_positions forced: (_FEW, _SPARSE) and the iterator it returns
REGIMES = {"peel": (1 << 60, 0, type(iter([]))), "regex": (-1, 0, map),
           "byte": (0, 1 << 60, compress)}


def _force(monkeypatch, regime: str) -> type:
    few, sparse, kind = REGIMES[regime]
    monkeypatch.setattr(states, "_FEW", few)
    monkeypatch.setattr(states, "_SPARSE", sparse)
    return kind


@pytest.mark.parametrize("density", [0, 0.01, 0.1, 0.5, 0.9, 1])
def test_both_bit_scans_equal_the_reference(monkeypatch, density):
    """The peel, the regex scan and the byte pass, each forced, list the
    reference's positions, as does the way chosen by the rule, at widths
    around multiples of 64."""
    rng = random.Random(f"scan/{density}")
    widths = [1, 2, 7, 8, 9] + [64 * k + j for k in (1, 2, 3, 16, 64) for j in (-1, 0, 1)]
    masks = [sum(1 << i for i in range(w) if rng.random() < density) for w in widths for _ in range(3)]
    expected = [reference_bit_positions(m) for m in masks]
    assert [list(bit_positions(m)) for m in masks] == expected
    for regime in REGIMES:
        _force(monkeypatch, regime)
        assert [list(bit_positions(m)) for m in masks] == expected


def _regime_masks(rng: random.Random) -> list[int]:
    """Masks of widths 1-9, 63-65, 1023-1025 and 4095-4097, the top bit set,
    with 1, ``_FEW``, ``_FEW + 1``, about ``W / _SPARSE`` and ``W`` members,
    and the empty mask."""
    masks = [0]
    for w in [*range(1, 10), 63, 64, 65, 1023, 1024, 1025, 4095, 4096, 4097]:
        cut = w // states._SPARSE
        for k in sorted({1, states._FEW, states._FEW + 1, cut - 1, cut, cut + 1, w}):
            if 1 <= k <= w:
                masks.append(sum(1 << i for i in rng.sample(range(w - 1), k - 1)) | 1 << (w - 1))
    return masks


@pytest.mark.parametrize("regime", [None, *REGIMES])
def test_bit_positions_regimes_equal_the_reference(monkeypatch, regime):
    """``bit_positions`` returns an iterator over the reference's positions,
    by the rule's choice or with each way forced, and a set lists the same
    members."""
    masks = _regime_masks(random.Random("regimes"))
    kind = _force(monkeypatch, regime) if regime else None
    space = make_space(4097)
    for m in masks:
        it = bit_positions(m)
        assert iter(it) is it and (kind is None or m == 0 or type(it) is kind)
        assert list(it) == reference_bit_positions(m)
        assert list(StateSet(space, m)) == reference_bit_positions(m)


@pytest.mark.parametrize("regime", [None, *REGIMES])
def test_scans_of_high_masks_equal_the_full_width_reader(monkeypatch, regime):
    """Masks whose members sit far above bit 0 (empty, one member, ``_FEW``
    and ``_FEW + 1`` members, sparse and dense runs) list the positions that
    the scan of the whole ``bin`` text lists, by the rule's choice or with
    each way forced."""
    rng = random.Random("high")
    few = states._FEW
    shapes = [0, 1, 0b101, (1 << few) - 1, (1 << few + 1) - 1, (1 << 4000) - 1]
    shapes += [sum(1 << i for i in rng.sample(range(span), k))
               for span, k in ((64, few), (200, few + 1), (1000, 90), (4000, 600), (300, 250))]
    masks = [m << low for m in shapes for low in (0, 1, 63, 64, 1001, 90_000)]
    expected = [reference_full_width_scan(m) for m in masks]
    if regime:
        _force(monkeypatch, regime)
    assert [list(bit_positions(m)) for m in masks] == expected


def test_eval_pred():
    sp = make_space(5)
    s = eval_pred(sp, Cmp(">=", Name("x"), IntLit(3)))
    assert sorted(s) == [3, 4]


_masks = st.integers(min_value=0, max_value=(1 << 6) - 1)


@given(_masks, _masks, _masks)
def test_boolean_algebra_laws(ma, mb, mc):
    sp = make_space(6)
    a, b, c = StateSet(sp, ma), StateSet(sp, mb), StateSet(sp, mc)
    assert (~(a | b)).mask == (~a & ~b).mask
    assert (~(a & b)).mask == (~a | ~b).mask
    assert ((a | b) & c).mask == ((a & c) | (b & c)).mask
    assert (a - b).mask == (a & ~b).mask
    assert (~~a).mask == a.mask
    assert a.is_subset(a | b) and (a & b).is_subset(a)


# a domain may mix types; ``0 == False`` and ``1 == 1.0`` may not stand in for each other
_domains = st.sampled_from([(0, 1, 2), (-1, 0), (False, True), ("a", "b"), (0, True, "a"), (1, False)])
# values a certificate row may carry in place of one of the domain's
_strays = st.sampled_from([0, 1, 2, -1, False, True, 0.0, 1.0, "a", "0", None, [0], {}])


def _read_rows(sp, rows):
    """``rows`` as the reader reads a schema-2 or schema-3 set of them."""
    return sets_from_json(sp, {"vars": [v.name for v in sp.vars], "sets": [rows]}, rows=True)[0]


@given(st.lists(_domains, min_size=1, max_size=3), st.data())
def test_a_row_entry_matches_each_row_as_index_of_row(domains, data):
    sp = StateSpace([VarDecl(f"v{k}", d) for k, d in enumerate(domains)])
    every = raw_states(sp)
    rows = [list(every[i]) for i in data.draw(st.lists(st.integers(0, sp.raw_size - 1)))]
    for row in rows:  # now and then a value of another type, or no value of the domain
        for k in range(len(row)):
            if data.draw(st.integers(0, 9)) == 0:
                row[k] = data.draw(_strays)
    expected, first_bad = 0, None
    for row in rows:
        try:
            expected |= 1 << sp.index_of_row(row)
        except SpaceError:
            first_bad = row
            break
    if first_bad is None:
        assert _read_rows(sp, rows).mask == expected
    else:
        with pytest.raises(SpaceError, match=f"^set 0: row {re.escape(repr(first_bad))} is not a state$"):
            _read_rows(sp, rows)


def _typed(values):
    # True == 1 and 0 == False: compare the types too
    return [(type(val), val) for val in values]


@st.composite
def _spaces(draw):
    """1-3 variables over ``_domains``, some of mixed types, under an
    invariant that clears some values of the variables of one type, so the
    raw index has holes."""
    decls, clauses = [], []
    for k, domain in enumerate(draw(st.lists(_domains, min_size=1, max_size=3))):
        decls.append(VarDecl(f"v{k}", domain))
        if len({*map(type, domain)}) == 1:
            cleared = st.lists(st.sampled_from(domain), max_size=len(domain) - 1, unique=True)
            for val in draw(cleared):
                lit = (BoolLit if type(val) is bool else IntLit if type(val) is int else Name)(val)
                clauses.append(Cmp("!=", Name(f"v{k}"), lit))
    invariant = And(tuple(clauses)) if len(clauses) > 1 else clauses[0] if clauses else None
    return StateSpace(decls, invariant)


@settings(max_examples=200, deadline=None)
@given(_spaces())
def test_the_codec_inverts_the_enumeration_on_every_raw_index(sp):
    names = [v.name for v in sp.vars]
    every = raw_states(sp)
    assert len(every) == sp.raw_size
    members = [i for i in range(sp.raw_size) if sp.full_mask >> i & 1]
    for i, row in enumerate(every):
        state = sp.state_of(i)
        assert list(state) == names and _typed(state.values()) == _typed(row)
        if sp.full_mask >> i & 1:
            assert sp.index_of_row(row) == i
            assert sp.index_of(dict(zip(names, row))) == i
        else:  # a hole: no state, even among the universe's rows
            with pytest.raises(SpaceError, match="are not a state"):
                sp.index_of_row(row)
            with pytest.raises(SpaceError, match=f"^set 0: row {re.escape(repr(list(row)))} is not"):
                _read_rows(sp, [list(every[j]) for j in members] + [list(row)])
    universe = sp.universe()
    assert [_typed(s.values()) for s in universe.to_json()] == [_typed(every[i]) for i in members]
    assert _read_rows(sp, [list(every[i]) for i in reversed(members)]) == universe


def test_decoding_or_encoding_a_few_states_builds_no_table():
    """``state_of`` and the reader's rows are arithmetic on the index: on
    10**5 raw states they allocate kilobytes, not a table of every state."""
    with pytest.warns(UserWarning, match="raw states"):
        sp = StateSpace([VarDecl(f"v{k}", tuple(range(10))) for k in range(5)])
    tracemalloc.start()
    try:
        state = sp.state_of(54321)
        found = _read_rows(sp, [[k, 2, 3, 4, 5] for k in range(10)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert state == {"v0": 1, "v1": 2, "v2": 3, "v3": 4, "v4": 5}
    assert sorted(found) == [54320 + k for k in range(10)]
    assert peak < 1 << 20


def test_index_of_row_matches_type_and_value():
    sp = StateSpace([VarDecl("x", (0, 1)), VarDecl("on", (False, True))])
    assert sp.index_of_row([1, True]) == 3
    for row in ([True, True], [1.0, True], [1, 1], [1, 1.0], ["1", True]):
        with pytest.raises(SpaceError, match="are not a state"):
            sp.index_of_row(row)
