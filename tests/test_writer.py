"""The set table that reports and certificates share: each distinct state
set of a document is stored once, each state as its index, and the table, as
``json.dumps`` writes it, decodes to the sets it replaced."""
import json

from hypothesis import given, settings, strategies as st

from fixleads import StateSet, StateSpace, VarDecl
from fixleads.exprs import And, BoolLit, Cmp, IntLit, Name
from fixleads.states import set_table, sets_from_json

# enum values that need escapes: quotes, backslashes, control and non-ASCII
_enum_values = st.text(alphabet='ab"\\\n\té€😀', min_size=1, max_size=4)


@st.composite
def spaces(draw):
    """1-3 variables (ints from a possibly negative ``lo``, bools, enums), and
    an ``invariant`` that clears some of their values, leaving holes."""
    decls, holes = [], []
    for k in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["int", "bool", "enum"]))
        if kind == "int":
            lo = draw(st.integers(-5, 3))
            domain = tuple(range(lo, lo + draw(st.integers(1, 4))))
        elif kind == "bool":
            domain = (False, True)
        else:
            domain = tuple(draw(st.lists(_enum_values, min_size=1, max_size=3, unique=True)))
        name = draw(st.sampled_from(["x", "on", "ñ\"", "mode"])) + str(k)
        decls.append(VarDecl(name, domain))
        # each variable keeps at least one value, so some state is left
        cleared = st.lists(st.sampled_from(domain), max_size=min(2, len(domain) - 1), unique=True)
        for val in draw(cleared):
            lit = BoolLit(val) if kind == "bool" else IntLit(val) if kind == "int" else Name(val)
            holes.append(Cmp("!=", Name(name), lit))
    invariant = And(tuple(holes)) if len(holes) > 1 else holes[0] if holes else None
    return StateSpace(decls, invariant)


@st.composite
def state_sets(draw, space):
    """An empty, full, sparse, dense or random set."""
    members = [i for i in range(space.raw_size) if space.full_mask >> i & 1]
    shape = draw(st.sampled_from(["empty", "full", "sparse", "dense", "random"]))
    if shape in ("sparse", "dense"):
        picked = draw(st.lists(st.sampled_from(members), max_size=3))
        mask = sum(1 << i for i in set(picked))
        mask = mask if shape == "sparse" else space.full_mask & ~mask
    else:
        mask = {"empty": 0, "full": space.full_mask}.get(shape)
        if mask is None:
            mask = draw(st.integers(0, space.full_mask)) & space.full_mask
    return StateSet(space, mask)


@st.composite
def documents(draw):
    """A space and a document of its sets."""
    space = draw(spaces())
    scalars = (st.none() | st.booleans() | st.integers(-(10**20), 10**20) | st.floats()
               | st.text(max_size=4))
    keys = st.text(max_size=4) | st.integers() | st.booleans() | st.none() | st.floats()
    return space, draw(st.recursive(
        scalars | state_sets(space),
        lambda kids: st.lists(kids, max_size=4) | st.tuples(kids, kids)
        | st.dictionaries(keys, kids, max_size=4),
        max_leaves=12,
    ))


def _pairs(doc, mapped):
    """Each set of ``doc`` with what stands at its place in ``mapped``."""
    if isinstance(doc, StateSet):
        yield doc, mapped
    elif isinstance(doc, dict):
        for key, value in doc.items():
            yield from _pairs(value, mapped[key])
    elif isinstance(doc, (list, tuple)):
        for value, got in zip(doc, mapped, strict=True):
            yield from _pairs(value, got)


@settings(max_examples=200, deadline=None)
@given(documents())
def test_set_table_stores_each_distinct_set_once_and_loses_none(drawn):
    space, doc = drawn
    header, mapped = set_table(space, doc)
    assert list(header) == ["vars", "sets"] and header["vars"] == [v.name for v in space.vars]
    table = header["sets"]
    # the header as json.dumps writes it reads back, even with no set to name
    sets = sets_from_json(space, json.loads(json.dumps(header)))
    pairs = list(_pairs(doc, mapped))
    if not pairs:
        assert table == sets == [] and json.dumps(mapped) == json.dumps(doc)
        return
    written = json.loads(json.dumps(table))
    assert all(sets[i].mask == s.mask for s, i in pairs)
    masks = [s.mask for s in sets]
    # numbered by size, sets of one size in first-use order
    assert masks == sorted(dict.fromkeys(s.mask for s, _ in pairs), key=int.bit_count)
    for entry in written:  # states as ascending indices
        members = entry["plus"] if isinstance(entry, dict) else entry
        assert members == sorted(set(members))
    for i, entry in enumerate(table):  # a delta entry rests on a non-empty earlier subset
        if isinstance(entry, dict):
            base = entry["base"]
            assert base < i and masks[base] and masks[base] & ~masks[i] == 0
