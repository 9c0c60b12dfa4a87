"""Parser and elaborator for the specification language."""
import copy
import os
import pickle

import pytest

from fixleads.dsl import (
    Assign,
    DslError,
    elaborate,
    load_file,
    parse,
)
from fixleads.printer import print_spec
from fixleads import dsl, exprs
from fixleads.exprs import And, Arith, IntLit, Name, Or
from fixleads.states import StateSet

from conftest import level_set

DATA = os.path.join(os.path.dirname(__file__), "data")


def _read(name):
    with open(os.path.join(DATA, name), encoding="utf-8") as fh:
        return fh.read()


def test_parse_idle_fixture():
    ast = parse(_read("idle.evt"))
    assert ast.name == "idle"
    assert len(ast.events) == 2
    assert len(ast.properties) == 1
    assert ast.properties[0].kind == "leadsto"
    assert ast.properties[0].assumption == "wf"


def test_empty_file_is_a_syntax_error():
    with pytest.raises(DslError, match="expected 'system'"):
        parse("")


def test_syntax_error_carries_position():
    with pytest.raises(DslError, match=r"^2:1:"):
        parse("system s\n???")


def test_duplicate_declarations_rejected():
    with pytest.raises(DslError, match="duplicate var"):
        parse("system s\nvar x : 0 .. 1\nvar x : 0 .. 1")
    with pytest.raises(DslError, match="duplicate event"):
        parse("system s\nevent e then skip\nevent e then skip")
    with pytest.raises(DslError, match="duplicate init"):
        parse("system s\ninit true\ninit false")


def test_a_variable_assigned_twice_is_named_at_its_second_assignment():
    text = "system s\nvar x : 0 .. 3\nevent e then x := 1, x := 2\nevent f then skip\n"
    with pytest.raises(DslError) as err:
        parse(text)
    assert (str(err.value), err.value.line, err.value.col) == (
        "3:22: variable assigned twice in one action", 3, 22)
    # each branch on its own; the first error in the text is the one reported
    assert parse("system s\nvar x : 0 .. 3\nevent e then x := 1 [] x := 2\n")
    for action, message in (("x := 1, x := ), y := )", "3:22: variable assigned twice"),
                            ("x := 1, y := ), x := 2", "3:27: expected an expression")):
        with pytest.raises(DslError, match=f"^{message}"):
            parse(f"system s\nvar x : 0 .. 3\nevent e then {action}\n")


def test_out_of_domain_assignment_rejected():
    text = "system s\nvar x : 0 .. 3\ninit x = 0\nevent e then x := 5"
    with pytest.raises(DslError, match="outside its domain"):
        elaborate(parse(text))


def test_undeclared_variable_rejected():
    text = "system s\nvar x : 0 .. 1\ninit x = 0\nevent e then y := 1"
    with pytest.raises(DslError, match="undeclared variable"):
        elaborate(parse(text))


def test_elaborate_idle_relations():
    elab = elaborate(parse(_read("idle.evt")))
    sys_ = elab.system
    goal, idle = sys_.events
    assert goal.name == "goal" and idle.name == "idle"
    one = sys_.space.index_of({"x": 1})
    zero = sys_.space.index_of({"x": 0})
    assert goal.guard.is_universe() and idle.guard.is_universe()
    assert goal.rel == {zero: 1 << one, one: 1 << one}
    assert idle.rel == {zero: 1 << zero, one: 1 << one}
    assert elab.has_init
    assert sorted(sys_.init) == [zero]


def test_elaborate_mono3_relations():
    elab = elaborate(parse(_read("mono3.evt")))
    inc = elab.system.event("inc")
    sp = elab.system.space
    assert sorted(inc.guard) == [sp.index_of({"x": 0}), sp.index_of({"x": 1})]
    assert inc.rel[sp.index_of({"x": 0})] == 1 << sp.index_of({"x": 1})
    assert "togo" in elab.variants
    assert sp.index_of({"x": 0}) in level_set(elab.variants["togo"], 2)


def test_choose_from_set_fans_out():
    text = ("system s\nvar x : 0 .. 2\ninit x = 0\n"
            "event e then x :in {0, 1}\n")
    elab = elaborate(parse(text))
    e = elab.system.event("e")
    sp = elab.system.space
    for s in e.guard:
        assert sorted(StateSet(sp, e.rel[s])) == [sp.index_of({"x": 0}), sp.index_of({"x": 1})]


def test_internal_choice_merges_into_one_event():
    text = ("system s\nvar x : 0 .. 2\ninit x = 0\n"
            "event e when x = 0 then x := 1 [] x := 2\n")
    elab = elaborate(parse(text))
    e = elab.system.event("e")
    sp = elab.system.space
    assert sorted(StateSet(sp, e.rel[sp.index_of({"x": 0})])) == [
        sp.index_of({"x": 1}), sp.index_of({"x": 2})]


def test_bool_and_enum_domains():
    text = ("system s\nvar on : bool\nvar mode : {low, high}\n"
            "init not on and mode = low\n"
            "event toggle then on := not on\n"
            "event ramp when mode = low then mode := high\n")
    elab = elaborate(parse(text))
    sp = elab.system.space
    assert sp.size == 4
    assert sorted(elab.system.init) == [sp.index_of({"on": False, "mode": "low"})]
    ramp = elab.system.event("ramp")
    s = sp.index_of({"on": False, "mode": "low"})
    assert StateSet(sp, ramp.rel[s]).to_json() == [{"on": False, "mode": "high"}]


def test_bool_domain_rejects_integer_assignment():
    text = "system s\nvar on : bool\ninit on\nevent e then on := 1"
    with pytest.raises(DslError, match="outside its domain"):
        elaborate(parse(text))


def test_invariant_restricts_space_and_escapes_fail():
    ok = ("system s\nvar x : 0 .. 3\ninvariant x < 3\ninit x = 0\n"
          "event e when x < 2 then x := x + 1\n")
    elab = elaborate(parse(ok))
    assert elab.system.space.size == 3
    bad = ("system s\nvar x : 0 .. 3\ninvariant x < 3\ninit x = 0\n"
           "event e when x < 3 then x := x + 1\n")
    with pytest.raises(DslError, match="leaves the invariant"):
        elaborate(parse(bad))


def test_variant_must_be_natural():
    text = ("system s\nvar x : 0 .. 2\ninit x = 0\nevent e then skip\n"
            "variant v := x - 2\n")
    with pytest.raises(DslError, match="negative"):
        elaborate(parse(text))


def test_property_name_resolution():
    base = "system s\nvar x : 0 .. 1\ninit x = 0\nevent e then x := 1\n"
    with pytest.raises(DslError, match="unknown variant"):
        elaborate(parse(base + "property p : leadsto {x = 0} {x = 1} under mp using ghost\n"))
    with pytest.raises(DslError, match="unknown event"):
        elaborate(parse(base + "property p : ensures {x = 0} {x = 1} via ghost under wf\n"))


def test_parse_print_parse_is_stable():
    for name in sorted(f for f in os.listdir(DATA) if f.endswith(".evt")):
        ast = parse(_read(name))
        printed = print_spec(ast)
        again = parse(printed)
        assert print_spec(again) == printed
        assert again == ast, name


def test_assignment_forms_parse_to_one_node():
    head = "system s\nvar x : 0 .. 2\nvar y : 0 .. 1\nevent e then "
    single = parse(head + "x := x + 1\n")
    assert single.events[0].actions[0] == (
        Assign("x", (Arith(("+",), (Name("x"), IntLit(1))),)),)
    assert parse(head + "x :in {x + 1}\n") == single
    assert "then x := x + 1\n" in print_spec(single)
    several = parse(head + "x :in {0, x}, y := 1\n")
    printed = print_spec(several)
    assert "then x :in {0, x}, y := 1\n" in printed
    assert parse(printed) == several


def test_chains_parse_to_one_node_and_parentheses_to_one_operand():
    def guard(text):
        return parse(f"system s\nvar x : 0 .. 1\nevent e when {text} then skip\n").events[0].guard

    x, one = Name("x"), IntLit(1)
    assert guard("x - x + 1 >= 0").left == Arith(("-", "+"), (x, x, one))
    assert guard("x - (x - 1) >= 0").left == Arith(("-",), (x, Arith(("-",), (x, one))))
    assert guard("(x - x) - 1 >= 0").left == Arith(("-",), (Arith(("-",), (x, x)), one))
    assert guard("x * x + x * 1 >= 0").left == Arith(
        ("+",), (Arith(("*",), (x, x)), Arith(("*",), (x, one))))
    assert guard("-x + 1 >= 0").left == Arith(("+",), (Arith(("-",), (IntLit(0), x)), one))
    p = guard("x = 1")
    assert guard("x = 1 and x = 1 or x = 1") == Or((And((p, p)), p))
    assert guard("x = 1 and (x = 1 and x = 1)") == And((p, And((p, p))))
    # a lone operand is returned as it is, whatever its level
    assert guard("(x = 1)") == guard("((x = 1))") == p


# guards of 5000 operands in one chain of one precedence level
LONG_GUARDS = {
    "plus": " + ".join(["x"] * 5000) + " >= 0",
    "minus": " - ".join(["x"] * 5000) + " <= 0",
    "times": " * ".join(["x"] * 5000) + " >= 0",
    "and": " and ".join(["x >= 0"] * 5000),
    "or": " or ".join(["x = 1"] * 5000),
    "and-or": " or ".join(["x = 0 and x = 1"] * 2500),
}


@pytest.mark.parametrize("op", LONG_GUARDS)
def test_a_5000_operand_chain_compares_hashes_copies_and_prints(op):
    text = f"system s\nvar x : 0 .. 1\nevent e when {LONG_GUARDS[op]} then skip\n"
    ast, again = parse(text), parse(text)
    event = ast.events[0]
    assert event == again.events[0] and hash(event) == hash(again.events[0])
    names = {name: getattr(module, name) for module in (dsl, exprs) for name in dir(module)}
    assert eval(repr(event), names) == event
    assert pickle.loads(pickle.dumps(event)) == event
    assert copy.deepcopy(event) == event
    printed = print_spec(ast)
    assert parse(printed) == ast and print_spec(parse(printed)) == printed


def test_elaboration_errors():
    with pytest.raises(DslError, match="no variables"):
        elaborate(parse("system s"))
    with pytest.raises(DslError, match="no events"):
        elaborate(parse("system s\nvar x : 0 .. 1\ninit true"))


def test_comments_and_parens():
    text = ("system s  # demo\nvar x : 0 .. 3\ninit (x = 0) or (x = 1)\n"
            "event e when (x + 1) * 1 < 3 then x := x + 1\n")
    elab = elaborate(parse(text))
    assert len(elab.system.init) == 2
    assert len(elab.system.event("e").guard) == 2


def test_load_file_round_trip(tmp_path):
    elab = load_file(os.path.join(DATA, "twodown.evt"))
    assert elab.system.name == "twodown"
    assert elab.properties[0].using == "down"
