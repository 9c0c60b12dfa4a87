"""Command line behavior: subcommands, exit codes, JSON output."""
import contextlib
import hashlib
import io
import json
import os
import re
import sys
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from fixleads import cli, load_file, oracle
from fixleads.certificates import cert_from_json, cert_to_json
from fixleads.cli import main
from fixleads.events import Event
from fixleads.states import set_table, sets_from_json
from fixleads.verdicts import Verdict

from schema3 import certificate_schema3, certificate_schema3_digest, schema3, schema3_digest

DATA = os.path.join(os.path.dirname(__file__), "data")
GOLDEN = os.path.join(DATA, "golden")
SCHEMA2 = os.path.join(DATA, "golden-schema2")  # certificates as schema 2 wrote them
SCHEMA3 = os.path.join(DATA, "golden-schema3")  # certificates as schema 3 wrote them
SCHEMA4 = os.path.join(DATA, "golden-schema4")  # certificates as schema 4 wrote them
MODELS = sorted(name[:-4] for name in os.listdir(DATA) if name.endswith(".evt"))


def _path(name):
    return os.path.join(DATA, name)


def test_check_idle_with_oracle(capsys):
    code = main(["check", _path("idle.evt"), "--oracle"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS reach" in out and "oracle agrees" in out


def test_check_cycle3_fails_with_counterexample(capsys):
    code = main(["check", _path("cycle3.evt")])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL climb" in out
    assert "counterexample" in out


def test_check_missing_file(capsys):
    code = main(["check", "missing.evt"])
    assert code == 2
    assert "no such file" in capsys.readouterr().err


def test_check_parse_error_is_usage(tmp_path, capsys):
    bad = tmp_path / "bad.evt"
    bad.write_text("system s\nvar x 0 .. 1\n")
    assert main(["check", str(bad)]) == 2


def test_check_json_report(capsys):
    code = main(["check", _path("mono3.evt"), "--oracle", "--json"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 1  # one line of JSON
    report = json.loads(out)
    assert report["schema"] == 5
    assert report["system"] == "mono3" and report["vars"] == ["x"]
    # each distinct set once, each state as its index (here x): ∅, {2}, then
    # {1, 2} and {0, 1, 2} on the one below
    assert report["sets"] == [[], [2], {"base": 1, "plus": [1]}, {"base": 2, "plus": [0]}]
    names = [p["name"] for p in report["properties"]]
    assert names == ["climb", "climb_by_variant"]
    for entry in report["properties"]:
        assert entry["verdict"]["holds"] is True
        assert entry["agreement"] is True
        assert "time_ms" in entry


def test_assume_override_flips_idle(capsys):
    # the idle property holds under wf but fails under forced mp
    assert main(["check", _path("idle.evt"), "--assume", "mp"]) == 1


def test_max_states_flag(tmp_path, capsys):
    assert main(["check", _path("idle.evt"), "--max-states", "1"]) == 2
    assert "cap" in capsys.readouterr().err


def test_max_states_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FIXLEADS_MAX_STATES", "1")
    assert main(["check", _path("idle.evt")]) == 2
    monkeypatch.setenv("FIXLEADS_MAX_STATES", "not-a-number")
    assert main(["check", _path("idle.evt")]) == 2


def test_si_command(capsys):
    code = main(["si", _path("mono3.evt"), "--verify"])
    out = capsys.readouterr().out
    assert code == 0
    assert "x=0" in out and "x=2" in out
    assert "verified" in out


def test_si_json_verify_is_one_document(monkeypatch):
    code, plain, _ = _captured(["si", _path("triangle3.evt"), "--json"])
    assert code == 0 and "verified" not in json.loads(plain)
    code, out, err = _captured(["si", _path("triangle3.evt"), "--json", "--verify"])
    assert (code, err) == (0, "")
    assert json.loads(out) == {**json.loads(plain), "verified": True}
    assert out.count("\n") == 1
    monkeypatch.setattr(oracle, "oracle_reachable", lambda system, init: system.space.empty())
    code, out, err = _captured(["si", _path("triangle3.evt"), "--json", "--verify"])
    assert code == 3 and "reachability disagrees" in err
    assert json.loads(out) == {**json.loads(plain), "verified": False}


def test_si_shifted_init(tmp_path, capsys):
    src = tmp_path / "shift.evt"
    src.write_text(
        "system shift\nvar x : 0 .. 2\ninit x = 1\n"
        "event inc when x != 2 then x := x + 1\n"
    )
    assert main(["si", str(src)]) == 0
    out = capsys.readouterr().out
    assert "x=1" in out and "x=2" in out and "x=0" not in out


def test_si_requires_init(tmp_path, capsys):
    src = tmp_path / "noinit.evt"
    src.write_text("system s\nvar x : 0 .. 1\nevent e then x := 1\n")
    assert main(["si", str(src)]) == 2
    assert "no init" in capsys.readouterr().err


def test_si_empty_init(tmp_path, capsys):
    src = tmp_path / "empty.evt"
    src.write_text("system s\nvar x : 0 .. 1\ninit false\nevent e then x := 1\n")
    assert main(["si", str(src)]) == 0
    assert capsys.readouterr().out.strip() == "{}"


def test_explain_and_check_cert_round_trip(tmp_path, capsys):
    out_file = tmp_path / "reach.cert.json"
    assert main(["explain", _path("idle.evt"), "reach", "--out", str(out_file)]) == 0
    payload = json.loads(out_file.read_text())
    assert payload["schema"] == 5
    assert payload["assumption"] == "wf" and payload["vars"] == ["x"]
    assert payload["certificate"]["rule"] in ("SBR", "STR", "SDR")
    assert main(["check-cert", _path("idle.evt"), str(out_file)]) == 0
    assert "accepted" in capsys.readouterr().out
    # the library's document as json.dumps writes it is explain's file, and accepted
    cert, claimed, assumption = cert_from_json(load_file(_path("idle.evt")).system.space, payload)
    assert assumption == "wf"
    dumped = json.dumps({"system": "idle", "property": "reach", "assumption": "wf",
                         **cert_to_json(cert, claimed)})
    assert dumped + "\n" == out_file.read_text()
    lib_file = tmp_path / "reach.lib.cert.json"
    lib_file.write_text(dumped)
    assert main(["check-cert", _path("idle.evt"), str(lib_file)]) == 0
    assert "accepted" in capsys.readouterr().out


def test_explain_wf_certificate_has_disjunction_layer(tmp_path):
    out_file = tmp_path / "reach.cert.json"
    main(["explain", _path("idle.evt"), "reach", "--out", str(out_file)])
    data = json.dumps(json.loads(out_file.read_text()))
    assert '"SDR"' in data


def test_explain_failing_property(capsys):
    assert main(["explain", _path("cycle3.evt"), "climb"]) == 1
    assert "fails" in capsys.readouterr().err


def test_explain_unknown_property(capsys):
    assert main(["explain", _path("cycle3.evt"), "ghost"]) == 2


def _explain_onto(out, capsys):
    code = main(["explain", _path("mono3.evt"), "climb", "--out", out])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    return err


def test_explain_out_missing_directory_exits_2(tmp_path, capsys):
    out = str(tmp_path / "missing" / "x.json")
    assert _explain_onto(out, capsys) == f"error: {out}: No such file or directory\n"


def test_explain_out_onto_a_directory_exits_2(tmp_path, capsys):
    assert _explain_onto(str(tmp_path), capsys) == f"error: {tmp_path}: Is a directory\n"


def test_check_cert_rejects_tampering(tmp_path, capsys):
    out_file = tmp_path / "climb.cert.json"
    assert main(["explain", _path("mono3.evt"), "climb", "--out", str(out_file)]) == 0
    payload = json.loads(out_file.read_text())
    sets = payload["sets"]
    # claim a start set larger than the certificate's conclusion
    sets.append([0, 1, 2])
    payload["claimed"]["a"] = len(sets) - 1
    node = payload["certificate"]
    if node["rule"] == "STR":
        node = node["links"][-1]
    sets.append([1])
    node["q"] = len(sets) - 1  # corrupt the final target
    out_file.write_text(json.dumps(payload))
    assert main(["check-cert", _path("mono3.evt"), str(out_file)]) == 1


def _schema3_of(path, out_file):
    """The certificate at ``out_file`` rewritten as schema 3 wrote it, rows of
    values, for the model at ``path``."""
    return certificate_schema3(json.loads(out_file.read_text()), load_file(path).system.space)


def test_check_cert_rejects_a_row_outside_the_invariant(tmp_path, capsys):
    out_file = tmp_path / "top_wf.cert.json"
    assert main(["explain", _path("triangle3.evt"), "top_wf", "--out", str(out_file)]) == 0
    payload = _schema3_of(_path("triangle3.evt"), out_file)
    payload["sets"][0].append([0, 1, 0])  # c1 > c0: a raw index, but no state
    out_file.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["check-cert", _path("triangle3.evt"), str(out_file)]) == 2
    assert "[0, 1, 0] is not a state" in capsys.readouterr().err


LAMP = ("system lamp\nvar on : bool\ninit not on\nevent flip when not on then on := not on\n"
        "property light : leadsto {not on} {on} under wf\n")


# False == 0, 1.0 == 1 and True == 1, but none of them names a state of the
# other type: row values match on (type, value)
@pytest.mark.parametrize("model, good, bad", [
    ("idle", 0, False), ("idle", 1, True), ("idle", 1, 1.0), ("idle", 0, 0.0), ("idle", 0, "0"),
    ("lamp", False, 0), ("lamp", True, 1), ("lamp", True, 1.0), ("lamp", False, "false"),
])
def test_check_cert_rejects_a_row_value_of_the_wrong_type(tmp_path, capsys, model, good, bad):
    path = _path("idle.evt")
    if model == "lamp":
        path = str(tmp_path / "lamp.evt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(LAMP)
    prop = "reach" if model == "idle" else "light"
    out_file = tmp_path / "cert.json"
    assert main(["explain", path, prop, "--out", str(out_file)]) == 0
    assert main(["check-cert", path, str(out_file)]) == 0
    payload = _schema3_of(path, out_file)
    rows = next(rows for rows in payload["sets"] if [good] in rows)
    rows[rows.index([good])] = [bad]
    out_file.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["check-cert", path, str(out_file)]) == 2
    assert f"row {[bad]!r} is not a state" in capsys.readouterr().err


# each bad entry stands as set 1 of triangle3's top_wf certificate, whose
# space has 64 raw states (c0 + 4 c1 + 16 c2); set 0 is {(3, 3, 3)}
BAD_INDEX_ENTRIES = {
    "bool": ([True], "set 1: not a list of state indices"),
    "float": ([1.0], "set 1: not a list of state indices"),
    "string": (["1"], "set 1: not a list of state indices"),
    "negative": ([-1], "set 1: state index -1 is outside the universe"),
    "past-raw-size": ([64], "set 1: state index 64 is outside the universe"),
    "huge": ([2**70], f"set 1: state index {2**70} is outside the universe"),
    "hole": ([4], "set 1: state index 4 is outside the universe"),  # c1 > c0
    "not-a-list": (0, "set 1: not a list of state indices"),
    "row": ([[0, 0, 0]], "set 1: not a list of state indices"),
    "delta-bool": ({"base": 0, "plus": [False]}, "set 1: not a list of state indices"),
    "delta-hole": ({"base": 0, "plus": [4]}, "set 1: state index 4 is outside the universe"),
    "delta-rows": ({"base": 0, "rows": [0]}, "set 1 is neither a list nor an object of base and plus"),
}


@pytest.mark.parametrize("case", sorted(BAD_INDEX_ENTRIES))
def test_check_cert_rejects_a_malformed_index_entry(tmp_path, case):
    entry, message = BAD_INDEX_ENTRIES[case]
    doc = _explained(tmp_path, _path("triangle3.evt"), "top_wf")
    assert doc["sets"][:2] == [[63], [0]]
    doc["sets"][1] = entry
    code, out, err = _check_cert(tmp_path, _path("triangle3.evt"), doc)
    assert (code, out) == (2, "")
    assert err == f"error: {tmp_path / 'edited.cert.json'}: malformed certificate file ({message})\n"


def test_the_schema_not_the_entry_picks_the_reader(tmp_path):
    # the same table read as the other schema's: rows are no indices, and
    # indices are no rows; the same tree read as the other schema's: a
    # schema-5 leaf carries no assumption, and a schema-4 one must
    with open(os.path.join(SCHEMA4, "mono3", "climb.cert.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert _check_cert(tmp_path, _path("mono3.evt"), {**doc, "schema": 3})[0] == 2
    old = certificate_schema3(dict(doc), load_file(_path("mono3.evt")).system.space)
    assert _check_cert(tmp_path, _path("mono3.evt"), old)[:2] == (0, "certificate accepted\n")
    assert _check_cert(tmp_path, _path("mono3.evt"), {**old, "schema": 4})[0] == 2
    assert _check_cert(tmp_path, _path("mono3.evt"), {**doc, "schema": 5})[0] == 2
    lean = _explained(tmp_path, _path("mono3.evt"), "climb")
    assert _check_cert(tmp_path, _path("mono3.evt"), {**lean, "schema": 4})[0] == 2


# each edit of a schema-5 chain's links, and the exit it gets: links that
# do not meet are a false certificate, any other shape is malformed
CHAIN_EDITS = {
    "links-do-not-meet": (1, lambda links: {"rule": "STR", "links": links[::-1]}),
    "one-link": (2, lambda links: {"rule": "STR", "links": links[:1]}),
    "no-links": (2, lambda links: {"rule": "STR", "links": []}),
    "links-not-a-list": (2, lambda links: {"rule": "STR", "links": dict(enumerate(links))}),
    "left-and-right": (2, lambda links: {"rule": "STR", "left": links[0], "right": links[1]}),
    "leaf-assumption": (2, lambda links: {"rule": "STR", "links": [{**links[0], "assumption": "mp"},
                                                                  *links[1:]]}),
}


@pytest.mark.parametrize("case", sorted(CHAIN_EDITS))
def test_check_cert_reads_schema5_chains_strictly(tmp_path, case):
    # mono3's climb is one chain of two mp links, {0, 1, 2} to {1, 2} to {2}
    doc = _explained(tmp_path, _path("mono3.evt"), "climb")
    assert doc["certificate"]["rule"] == "STR" and len(doc["certificate"]["links"]) == 2
    code, edit = CHAIN_EDITS[case]
    doc["certificate"] = edit(doc["certificate"]["links"])
    out = "certificate rejected\n" if code == 1 else ""
    assert _check_cert(tmp_path, _path("mono3.evt"), doc)[:2] == (code, out)


@pytest.mark.parametrize("assumption", [None, ["mp"], "missing"])
def test_a_schema5_document_needs_its_assumption(tmp_path, assumption):
    """So does a schema-2, 3 or 4 golden, whose leaves carry their own."""
    docs = [_explained(tmp_path, _path("mono3.evt"), "climb")]
    for folder in (SCHEMA2, SCHEMA3, SCHEMA4):
        with open(os.path.join(folder, "mono3", "climb.cert.json"), encoding="utf-8") as fh:
            docs.append(json.load(fh))
    for doc in docs:
        if assumption == "missing":
            del doc["assumption"]
        else:
            doc["assumption"] = assumption
        code, out, err = _check_cert(tmp_path, _path("mono3.evt"), doc)
        assert (code, out) == (2, ""), doc["schema"]
        assert err.endswith(f"malformed certificate file (assumption {doc.get('assumption')!r} is not a string)\n")
    assert [doc["schema"] for doc in docs] == [5, 2, 3, 4]


# a variant whose levels do not decrease: the rule fails on both claims
BAD_RULE = "variant bad := x\nproperty climb_bad : leadsto {x = 0} {x = 2} under mp using bad\n"


@pytest.mark.parametrize("model, holds", [("mono3.evt", True), ("cycle3.evt", False)])
def test_failing_variant_rule_is_a_fail_not_a_defect(tmp_path, capsys, model, holds):
    src = tmp_path / model
    with open(_path(model), encoding="utf-8") as fh:
        src.write_text(fh.read() + BAD_RULE)
    assert main(["check", str(src), "--oracle"]) == 1
    out = capsys.readouterr().out
    assert "FAIL climb_bad" in out and "ORACLE DISAGREES" not in out
    note = "[rule fails; oracle and direct fixpoint hold]" if holds else "[oracle agrees]"
    assert f"FAIL climb_bad (leadsto under mp) {note}" in out
    assert "failing_level" in out
    assert main(["check", str(src), "--oracle", "--json"]) == 1
    entry = json.loads(capsys.readouterr().out)["properties"][-1]
    assert entry["verdict"]["details"]["failing_level"]["n"] == 0
    assert entry["oracle"]["holds"] is holds and entry["agreement"] is True
    # a false property keeps its (validated) counterexample
    assert ("counterexample" in entry) is not holds


def _text_of_report(report):
    """What text-mode ``check`` printed while it built the report in both
    modes: the former printer, run over the ``--json`` report's schema-3 form."""
    lines = [f"system {report['system']} ({len(report['properties'])} properties)"]
    for entry in report["properties"]:
        mark = "PASS" if entry["verdict"]["holds"] else "FAIL"
        line = f"  {mark} {entry['name']} ({entry['kind']} under {entry['assumption']})"
        if "agreement" in entry:
            if not entry["agreement"]:
                note = "ORACLE DISAGREES"
            elif mark == "FAIL" and entry["oracle"]["holds"]:
                note = "rule fails; oracle and direct fixpoint hold"
            else:
                note = "oracle agrees"
            line += f" [{note}]"
        lines.append(line)
        for antecedent in ("failing_level", "not_invariant"):
            if antecedent in entry["verdict"].get("details", {}):
                detail = json.dumps(entry["verdict"]["details"][antecedent])
                lines.append(f"       rule antecedent fails, {antecedent}: {detail}")
        if "counterexample" in entry:
            lines.append(f"       counterexample: {json.dumps(entry['counterexample'])}")
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("flags", [[], ["--oracle"], ["--si", "--oracle"], ["--assume", "wf"],
                                   ["--assume", "mp", "--oracle"]])
@pytest.mark.parametrize("model", MODELS + ["mono3+bad", "cycle3+bad"])
def test_text_check_prints_the_report_without_building_it(tmp_path, model, flags):
    name, _, bad = model.partition("+")
    path = tmp_path / f"{name}.evt"
    with open(_path(f"{name}.evt"), encoding="utf-8") as fh:
        path.write_text(fh.read() + (BAD_RULE if bad else ""))
    argv = ["check", str(path), *flags]
    with mock.patch.object(Verdict, "to_json", side_effect=AssertionError("built in text mode")):
        code, text, err = _captured(argv)
    json_code, out, json_err = _captured(argv + ["--json"])
    assert (code, err) == (json_code, json_err)
    assert text == _text_of_report(schema3(json.loads(out), load_file(str(path)).system.space))


def _counted(monkeypatch, name):
    """The calls made to ``oracle``'s function ``name`` from now on."""
    calls = []
    original = getattr(oracle, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(oracle, name, counting)
    return calls


# a second property with climb's claim, one direct and one by a variant rule
SAME_CLAIM = {
    "mono3": "property climb_again : leadsto {x = 0} {x = 2} under mp\n"
             "property climb_ruled : leadsto {x = 0} {x = 2} under mp using togo\n",
    "cycle3": "property climb_again : leadsto {x = 0} {x = 2} under mp\n",
}


@pytest.mark.parametrize("model", sorted(SAME_CLAIM))
def test_oracle_searches_once_per_distinct_claim(tmp_path, monkeypatch, model):
    src = tmp_path / f"{model}.evt"
    with open(_path(f"{model}.evt"), encoding="utf-8") as fh:
        src.write_text(fh.read() + SAME_CLAIM[model])
    searches = _counted(monkeypatch, "oracle_mp")
    answers = _counted(monkeypatch, "_answer")  # each graph's one answer per semantics
    validations = _counted(monkeypatch, "validate_counterexample")
    code, out, _ = _captured(["check", str(src), "--oracle", "--json"])
    space = load_file(str(src)).system.space
    with open(os.path.join(GOLDEN, model, "check.json"), encoding="utf-8") as fh:
        golden = schema3(json.load(fh), space)["properties"][0]  # climb
    questions = {(a.mask, b.mask) for _, a, b in searches}
    assert len(answers) == len(questions) == {"mono3": 2, "cycle3": 1}[model]
    assert len(searches) > len(questions)  # asked again, answered once
    entries = schema3(json.loads(out), space)["properties"]  # sets by value, not by index
    assert code == (0 if all(e["verdict"]["holds"] for e in entries) else 1)
    # every failing verdict's counterexample is still validated
    failing = sum("counterexample" in e for e in entries)
    assert len(validations) == failing == {"mono3": 0, "cycle3": 2}[model]
    for entry in entries:
        del entry["time_ms"]
        if entry["name"] in ("climb", "climb_again"):
            assert {**entry, "name": "climb"} == golden
        elif entry["name"] == "climb_ruled":  # the rule's own verdict, the same search
            assert entry["oracle"] == golden["oracle"] and entry["agreement"] is True


@pytest.mark.parametrize("model, graphs", [("ring3", 2), ("starve3", 1)])
def test_mp_and_wf_oracles_of_one_claim_share_one_search(monkeypatch, model, graphs):
    # enter_wf and enter_mp claim the same a and b; ring3's enter_wf_si
    # claims them inside si, which needs a graph of its own
    searches = []
    lister = oracle._edges_within
    monkeypatch.setattr(oracle, "_edges_within", lambda *args: searches.append(args) or lister(*args))
    mp, wf = _counted(monkeypatch, "oracle_mp"), _counted(monkeypatch, "oracle_wf")
    code, out, _ = _captured(["check", _path(f"{model}.evt"), "--oracle"])
    assert out.count("[oracle agrees]") == len(mp + wf) == {"ring3": 3, "starve3": 2}[model]
    assert len(searches) == graphs
    assert code == {"ring3": 0, "starve3": 1}[model]


# `using` rules with si: the rule, the oracle and explain judge one claim
SI_RULE_MODELS = [
    "variant v := x * (2 - x)\n"
    "property climb : leadsto {true} {x = 2} under mp using v with si\n",
    "variant togo := 2 - x\n"
    "property p : leadsto {true} {x = 2 or x = 0} under mp using togo with si\n",
]


@pytest.mark.parametrize("tail", SI_RULE_MODELS, ids=["level-at-unreachable", "target-unreachable"])
def test_using_rule_honours_si(tmp_path, capsys, tail):
    src = tmp_path / "shift.evt"
    src.write_text("system shift\nvar x : 0 .. 2\ninit x = 1\n"
                   "event inc when x != 2 then x := x + 1\n" + tail)
    prop = tail.split("property ")[1].split(" ")[0]
    assert main(["check", str(src), "--oracle"]) == 0
    assert "PASS" in capsys.readouterr().out
    assert main(["check", str(src), "--oracle", "--json"]) == 0
    report = schema3(json.loads(capsys.readouterr().out), load_file(str(src)).system.space)
    assert report["properties"][0]["verdict"]["details"]["si"] == [{"x": 1}, {"x": 2}]
    cert = tmp_path / "p.cert.json"
    assert main(["explain", str(src), prop, "--out", str(cert)]) == 0
    assert main(["check-cert", str(src), str(cert)]) == 0
    assert "certificate accepted" in capsys.readouterr().out


NO_INIT = ("system noinit\nvar x : 0 .. 2\nevent stay then skip\n"
           "property never : leadsto {x = 0} {x = 2} under mp")


@pytest.mark.parametrize("tail, argv", [
    (" with si", ["check", "--oracle"]),
    ("", ["check", "--si"]),
    (" with si", ["explain", "never"]),
], ids=["with-si", "check-si", "explain"])
def test_si_without_init_is_a_usage_error(tmp_path, capsys, tail, argv):
    # si of a model without init would be empty and make every claim vacuous
    src = tmp_path / "noinit.evt"
    src.write_text(NO_INIT + tail + "\n")
    assert main([argv[0], str(src), *argv[1:], "--max-states", "64"]) == 2
    assert "no init declared" in capsys.readouterr().err
    assert main(["check", str(src)]) == (2 if tail else 1)


def test_oracle_disagreement_is_a_defect_without_oracle_flag(monkeypatch, capsys):
    real = cli.check_property

    def refuted(*args):
        verdict = real(*args)
        verdict.holds = False
        return verdict

    # patched where cli decides, not in mp, whose variant rule checks itself by leadsto_mp
    monkeypatch.setattr(cli, "check_property", refuted)
    # the oracle runs for the failing climb, finds no counterexample, and disagrees
    assert main(["check", _path("mono3.evt")]) == 3
    assert "oracle and fixpoint verdicts disagree" in capsys.readouterr().err


# under wf, idle cannot loop at x = 0 while go stays enabled there; at x = 1 it can
IDLE_AT_ZERO = ("system s\nvar x : 0 .. 2\nevent go when x = 0 then x := 1\nevent idle then skip\n"
                "property p : leadsto {x = 0} {x = 2} under wf\n")


@pytest.mark.parametrize("case", ["start-outside-a", "wf-lasso-labelled-mp"])
def test_counterexample_not_bound_to_its_claim_is_a_defect(tmp_path, monkeypatch, capsys, case):
    # each forged run passes validate_counterexample: only its claim rejects it
    if case == "start-outside-a":  # climb starts at x = 0; this loop runs from x = 1
        path, name = _path("cycle3.evt"), "oracle_mp"
        forged = oracle.Counterexample("lasso", 1, cycle=[("dec", 0), ("inc", 1)], assumption="mp")
    else:  # an mp lasso skips the fairness witnesses
        path, name = str(tmp_path / "s.evt"), "oracle_wf"
        (tmp_path / "s.evt").write_text(IDLE_AT_ZERO)
        forged = oracle.Counterexample("lasso", 0, cycle=[("idle", 0)], assumption="mp")
    elab = load_file(path)
    assert oracle.validate_counterexample(elab.system, forged, elab.properties[0].q)
    assert main(["check", path]) == 1  # the oracle's own counterexample is bound to the claim
    capsys.readouterr()
    monkeypatch.setattr(oracle, name, lambda *args, **kwargs: (False, forged))
    assert main(["check", path]) == 3
    assert "internal defect" in capsys.readouterr().err


def test_long_chain_certificate_is_one_chain(tmp_path, capsys):
    # one mp layer per value: the chain has 1100 links, one node deep
    src = tmp_path / "counter.evt"
    src.write_text("system counter\nvar x : 0 .. 1100\ninit x = 0\n"
                   "event inc when x != 1100 then x := x + 1\n"
                   "property up : leadsto {x = 0} {x = 1100} under mp\n")
    cert = tmp_path / "up.cert.json"
    assert main(["explain", str(src), "up", "--out", str(cert)]) == 0
    payload = json.loads(cert.read_text())
    chain = payload["certificate"]
    assert chain.keys() == {"rule", "links"} and chain["rule"] == "STR"
    sizes = [s.mask.bit_count() for s in sets_from_json(load_file(str(src)).system.space, payload)]
    assert all(link.keys() == {"rule", "p", "q"} for link in chain["links"])
    assert [sizes[link["p"]] for link in chain["links"]] == list(range(1101, 1, -1))
    assert [link["q"] for link in chain["links"][:-1]] == [link["p"] for link in chain["links"][1:]]
    assert len(payload["sets"]) == 1102  # the 1101 layers once each, and the claimed a
    assert main(["check-cert", str(src), str(cert)]) == 0
    assert "certificate accepted" in capsys.readouterr().out


SDR_PARTS_NUMBER = {
    "schema": 2,
    "system": "mono3",
    "property": "climb",
    "assumption": "wf",
    "vars": ["x"],
    "sets": [[]],
    "claimed": {"a": 0, "b": 0},
    "certificate": {"rule": "SDR", "q": 0, "parts": 5},
}


def _deep_document(depth):
    """A schema-2 document whose tree nests ``depth`` STR nodes."""
    leaf = '{"rule": "SBR", "p": 0, "q": 0, "assumption": "mp"}'
    tree = '{"rule": "STR", "left": ' * depth + leaf + (', "right": ' + leaf + "}") * depth
    return ('{"schema": 2, "system": "mono3", "property": "climb", "assumption": "mp", '
            '"vars": ["x"], "sets": [[]], "claimed": {"a": 0, "b": 0}, "certificate": ' + tree + "}")


def _deep_links_document(depth):
    """A schema-5 document whose tree nests ``depth`` STR nodes, each the
    first of its parent's links."""
    leaf = '{"rule": "SBR", "p": 0, "q": 0}'
    tree = '{"rule": "STR", "links": [' * depth + leaf + (", " + leaf + "]}") * depth
    return ('{"system": "mono3", "property": "climb", "assumption": "mp", "schema": 5, '
            '"vars": ["x"], "sets": [[]], "claimed": {"a": 0, "b": 0}, "certificate": ' + tree + "}")


@pytest.mark.parametrize("case", ["malformed-json", "top-level-list", "parts-number",
                                  "deep-nesting", "deep-links", "check-directory", "binary-model",
                                  "deep-model", "huge-literal", "huge-value", "huge-operand",
                                  "report"])
def test_bad_input_exits_2_without_traceback(tmp_path, capsys, case):
    bad = tmp_path / "bad"
    argv = ["check-cert", _path("mono3.evt"), str(bad)]
    if case == "malformed-json":
        bad.write_text("{not json")
    elif case == "top-level-list":
        bad.write_text("[]")
    elif case == "parts-number":
        bad.write_text(json.dumps(SDR_PARTS_NUMBER))
    elif case == "deep-nesting":
        bad.write_text(_deep_document(5000))
    elif case == "deep-links":
        bad.write_text(_deep_links_document(5000))
    elif case == "check-directory":
        argv = ["check", str(tmp_path)]
    elif case == "report":  # a check --json report of the same system, given as a certificate
        bad.write_text(_captured(["check", _path("mono3.evt"), "--json"])[1])
    elif case == "deep-model":
        init = "(" * 3000 + "x = 0" + ")" * 3000
        bad.write_text(f"system s\nvar x : 0 .. 1\ninit {init}\n"
                       "event e when x >= 0 then skip\n"
                       "property p : leadsto {true} {true} under mp\n")
        argv = ["check", str(bad)]
    elif case == "huge-literal":  # more digits than Python's int() reads by default
        bad.write_text(f"system s\nvar x : 0 .. 1\nevent e when x < {'1' * 5000} then skip\n")
        argv = ["check", str(bad)]
    elif case in ("huge-value", "huge-operand"):  # values with more digits than repr() prints
        event = "then x := x * 10" if case == "huge-value" else "when x * 10 + true > 0 then skip"
        bad.write_text(f"system s\nvar x : {'9' * 4300} .. {'9' * 4300}\nevent e {event}\n")
        argv = ["check", str(bad)]
    else:
        bad.write_bytes(b"\xff\xfe\x00")
        argv = ["check", str(bad)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    # each hand-written document fails where it was written to fail
    cause = {"parts-number": "SDR parts must be a list", "deep-nesting": "nested too deeply",
             "deep-links": "nested too deeply",
             "report": "malformed certificate file (property None is not a string)",
             "huge-literal": "3:18: integer literal of 5000 digits is too long",
             "huge-value": "assigns x := an integer too long to print, outside its domain",
             "huge-operand": "'+' needs integers, got an integer too long to print, True"}
    assert cause.get(case, "") in err


def test_a_long_flat_expression_loads(tmp_path, capsys):
    # a chain of one operator is walked in a loop: only real nesting exits 2
    model = tmp_path / "long.evt"
    guard = " + ".join(["x"] * 5000)
    model.write_text("system s\nvar x : 0 .. 1\ninit x = 0\n"
                     f"event e when {guard} >= 0 then skip\n"
                     "property p : leadsto {true} {true} under mp\n")
    assert main(["check", str(model)]) == 0
    assert capsys.readouterr().err == ""


# each bad entry stands as set 2 of an otherwise valid mono3 climb document
BAD_DELTA_ENTRIES = {
    "self-reference": {"base": 2, "rows": []},
    "forward-reference": {"base": 3, "rows": []},
    "out-of-range": {"base": 99, "rows": []},
    "negative": {"base": -1, "rows": []},
    "bool-base": {"base": True, "rows": []},
    "float-base": {"base": 0.0, "rows": []},
    "string-base": {"base": "0", "rows": []},
    "no-base": {"rows": [[1]]},
    "extra-key": {"base": 0, "rows": [], "more": []},
    "rows-object": {"base": 0, "rows": {"0": [1]}},
    "rows-number": {"base": 0, "rows": 1},
    "row-not-a-state": {"base": 0, "rows": [[3]]},
}


@pytest.mark.parametrize("case", sorted(BAD_DELTA_ENTRIES))
def test_bad_delta_entry_exits_2_without_traceback(tmp_path, case):
    doc = {"schema": 3, "system": "mono3", "property": "climb", "assumption": "mp",
           "vars": ["x"], "sets": [[[0]], [[2]], BAD_DELTA_ENTRIES[case], [[1]]],
           "claimed": {"a": 0, "b": 1},
           "certificate": {"rule": "SBR", "p": 0, "q": 1, "assumption": "mp"}}
    bad = tmp_path / "bad.cert.json"
    bad.write_text(json.dumps(doc))
    code, err = _run(["check-cert", _path("mono3.evt"), str(bad)])
    assert code == 2 and err.startswith("error: ") and "Traceback" not in err
    assert "set 2" in err or "not a list of rows" in err or "is not a state" in err


def test_a_deep_base_chain_decodes(tmp_path, capsys):
    # sets 1..5000 are each set 0 again, one delta on the next
    sets = [[[0]]] + [{"base": i, "rows": []} for i in range(5000)]
    doc = {"schema": 3, "system": "mono3", "property": "climb", "assumption": "mp",
           "vars": ["x"], "sets": sets + [[[2]], {"base": 5001, "rows": [[1]]}],
           "claimed": {"a": 5000, "b": 5001},
           "certificate": {"rule": "STR",
                           "left": {"rule": "SBR", "p": 5000, "q": 5002, "assumption": "mp"},
                           "right": {"rule": "SBR", "p": 5002, "q": 5001, "assumption": "mp"}}}
    cert = tmp_path / "deep.cert.json"
    cert.write_text(json.dumps(doc))
    assert main(["check-cert", _path("mono3.evt"), str(cert)]) == 0
    assert capsys.readouterr().out == "certificate accepted\n"


def _explained(tmp_path, model, prop):
    out = tmp_path / f"{prop}.cert.json"
    assert _run(["explain", model, prop, "--out", str(out)])[0] == 0
    return json.loads(out.read_text())


def _check_cert(tmp_path, model, doc):
    cert = tmp_path / "edited.cert.json"
    cert.write_text(json.dumps(doc))
    return _captured(["check-cert", model, str(cert)])


@pytest.mark.parametrize("field, value", [
    ("system", "idle"), ("system", None), ("property", "ghost"), ("property", ["climb"]),
])
def test_check_cert_for_nothing_in_the_model_exits_2(tmp_path, field, value):
    doc = _explained(tmp_path, _path("mono3.evt"), "climb")
    if value is None:
        del doc[field]
    else:
        doc[field] = value
    code, out, err = _check_cert(tmp_path, _path("mono3.evt"), doc)
    assert code == 2 and out == "" and err.startswith("error: ") and "Traceback" not in err


# ``step`` fails (x = 0 steps to 1), but climb's chain proves the leads-to of
# its sets; ``by_idle`` fails (idle stays at 0), but goal makes that step
ENSURES = {
    "mono3": ("mono3.evt", "climb", "property step : ensures {x = 0} {x = 2} under mp\n"
              "property one : ensures {x = 0} {x = 1} under mp\n"),
    "idle": ("idle.evt", "reach", "property by_idle : ensures {x = 0} {x = 1} via idle under wf\n"
             "property by_goal : ensures {x = 0} {x = 1} via goal under wf\n"),
}


def _with_ensures(tmp_path, name):
    source, prop, extra = ENSURES[name]
    with open(_path(source), encoding="utf-8") as fh:
        text = fh.read()
    model = tmp_path / source
    model.write_text(text + extra)
    return str(model), prop


def test_check_cert_binds_the_claim_of_the_named_property(tmp_path):
    model, _ = _with_ensures(tmp_path, "mono3")
    doc = _explained(tmp_path, model, "climb")
    assert _check_cert(tmp_path, model, doc)[:2] == (0, "certificate accepted\n")
    # climb_by_variant claims {true}: the same tree does not cover it
    for edit in ({"property": "climb_by_variant"}, {"assumption": "wf"},
                 {"property": "step"}, {"claimed": {"a": doc["claimed"]["b"], "b": doc["claimed"]["b"]}}):
        code, out, err = _check_cert(tmp_path, model, {**doc, **edit})
        assert (code, out, err) == (1, "certificate rejected\n", ""), edit
    # a passing ensures: one leaf on its sets
    one = _explained(tmp_path, model, "one")
    assert one["certificate"]["rule"] == "SBR"
    assert _check_cert(tmp_path, model, one)[:2] == (0, "certificate accepted\n")


def test_check_cert_holds_a_wf_ensures_to_its_via_event(tmp_path):
    model, _ = _with_ensures(tmp_path, "idle")
    doc = _explained(tmp_path, model, "by_goal")
    assert doc["certificate"]["helpful"] == "goal"
    assert _check_cert(tmp_path, model, doc)[:2] == (0, "certificate accepted\n")
    # the goal leaf holds, but by_idle claims the step of idle
    assert _check_cert(tmp_path, model, {**doc, "property": "by_idle"})[:2] == (
        1, "certificate rejected\n")


def test_unexpected_exception_is_a_defect(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_si", broken)
    assert main(["si", _path("mono3.evt")]) == 3
    assert "internal defect: RuntimeError: boom" in capsys.readouterr().err


def test_a_defect_exits_3_even_when_the_traceback_cannot_be_printed(monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(oracle, "oracle_wf", exhausted)
    monkeypatch.setitem(sys.modules, "traceback", None)  # importing it fails
    assert main(["check", _path("starve3.evt"), "--oracle"]) == 3
    assert "internal defect: MemoryError" in capsys.readouterr().err


# --- golden outputs ---------------------------------------------------------

CHECK_WAYS = {
    "check": [],
    "check-si": ["--si"],
    "check-assume-mp": ["--assume", "mp"],
    "check-assume-wf": ["--assume", "wf"],
}


def golden_outputs(path, work, raw=False):
    """Every golden output of the model at ``path``, as ``{file name: text}``:
    the ``check --oracle --json`` reports (without ``time_ms``), the ``si --json``
    report, each ``explain`` certificate, and every exit code in ``exits.json``.
    ``work`` is a scratch directory for the certificates.  With ``raw``, each
    report is the text ``check`` wrote, with every ``time_ms`` value set to 0,
    instead of ``json.dumps`` of it without ``time_ms``."""
    files, exits = {}, {}
    for way, flags in CHECK_WAYS.items():
        code, out, _ = _captured(["check", path, "--oracle", "--json", *flags])
        if raw:
            files[way + ".json"] = re.sub(r'"time_ms": [-+.eE0-9]+', '"time_ms": 0', out)
        else:
            report = json.loads(out)
            for entry in report["properties"]:
                del entry["time_ms"]
            files[way + ".json"] = json.dumps(report) + "\n"
        exits[way] = code
    code, files["si.json"], _ = _captured(["si", path, "--json"])
    exits["si"] = code
    for prop in load_file(path).properties:
        cert = os.path.join(work, prop.name + ".cert.json")
        code, _, _ = _captured(["explain", path, prop.name, "--out", cert])
        exits["explain " + prop.name] = code
        if code == 0:
            with open(cert, encoding="utf-8") as fh:
                files[prop.name + ".cert.json"] = fh.read()
    files["exits.json"] = json.dumps(exits, indent=1) + "\n"
    return files


@pytest.mark.parametrize("model", MODELS)
def test_golden_outputs(tmp_path, model):
    folder = os.path.join(GOLDEN, model)
    expected = {}
    for name in os.listdir(folder):
        with open(os.path.join(folder, name), encoding="utf-8") as fh:
            expected[name] = fh.read()
    assert golden_outputs(_path(model + ".evt"), str(tmp_path)) == expected


# sha256 of each golden certificate as schema 3 wrote it, before schema 4
# wrote each state as its index: the schema-3 form rebuilt from each
# schema-4 golden, in tests/data/golden-schema4, must come out byte for byte
# (they are the files of tests/data/golden-schema3).
GOLDEN_CERT_SCHEMA3 = {
    "idle/reach.cert.json": "7900d1eae62ea21dd6140ab59fa09d5ac01916bebf977b6b661659bc09e9e562",
    "ladder3/climb.cert.json": "93173aa68ef9d4e96599de79c38582faabeb57447d1c9826ec57abb521910804",
    "mono3/climb.cert.json": "a14f2413b615fa4a5e3c2cd0dbfccaceb24259356c16d8ed1302d5ab4f051f91",
    "mono3/climb_by_variant.cert.json": "04f83f1a01e1237f7da495cb4ec08f6f288aef3f5e01a13974367c5e44d6882e",
    "ring3/enter_mp.cert.json": "066436db1298a090f9c8d4c44df19f2a0c3df226649d14a7652f02f56022e3c3",
    "ring3/enter_wf.cert.json": "a4eaf8f2640adacf3ec7fe68dea52af5975cda5d75b1c9fb520be9afc9d23a52",
    "ring3/enter_wf_si.cert.json": "5a1557edb8d82cc8a8ca5e4d53cc73c33a2b41910b938903e66b265da8827e67",
    "triangle3/top.cert.json": "f5a5aef93a450d8b0bfc880fb66dee9fa3fd44dd9a85dc5eaeb26a6d617bd5df",
    "triangle3/top_by_variant.cert.json": "f29bea52448a84c3cf40ccafca46ef47f008b7e90b3ab4f587d2721e2fa6ea23",
    "triangle3/top_wf.cert.json": "e9fbaefec013df6300d7eb27a23f616472ea8e3626a1783c3e37fd6789f5bb7e",
    "twodown/drain.cert.json": "1747a10a9c8f76243ee65ae3db45b4a51f411801f19324343821df435f9c4d20",
}


@pytest.mark.parametrize("model", MODELS)
def test_golden_certificates_rebuild_their_schema3_bytes(model):
    space = load_file(_path(model + ".evt")).system.space
    rebuilt = {}
    folder = os.path.join(SCHEMA4, model)
    for name in os.listdir(folder) if os.path.isdir(folder) else ():
        with open(os.path.join(folder, name), encoding="utf-8") as fh:
            rebuilt[f"{model}/{name}"] = certificate_schema3_digest(fh.read(), space)
    assert rebuilt == {key: d for key, d in GOLDEN_CERT_SCHEMA3.items() if key.startswith(model + "/")}


def lean(doc: dict, space) -> dict:
    """The schema-4 certificate ``doc``, a parsed document of the model whose
    space is ``space``, after the four edits that make it schema 5: its nest
    of STR nodes flattened to one chain, the chain's first link (``a`` to
    the fixpoint) dropped, each SDR part dropped whose ``p`` adds no state to
    the parts kept before it, and each leaf's assumption dropped.  Its set
    table is then written again; ``doc`` is rebuilt in place, so every key
    keeps its position."""
    sets = sets_from_json(space, doc)

    def links(n):
        return links(n["left"]) + links(n["right"]) if n["rule"] == "STR" else [node(n)]

    def node(n):
        if n["rule"] == "SBR":
            return {k: sets[v] if k in ("p", "q") else v for k, v in n.items() if k != "assumption"}
        if n["rule"] == "STR":
            chain = links(n)[1:]
            return {"rule": "STR", "links": chain} if len(chain) > 1 else chain[0]
        parts, covered = [], 0
        for part in map(node, n["parts"]):
            if not parts or part["p"].mask & ~covered:
                parts.append(part)
                covered |= part["p"].mask
        return {"rule": "SDR", "q": sets[n["q"]], "parts": parts}

    claimed = {key: sets[i] for key, i in doc["claimed"].items()}
    header, rest = set_table(space, {"claimed": claimed, "certificate": node(doc["certificate"])})
    doc.update(schema=5, **header, **rest)
    return doc


# sha256 of each golden report as schema 3 wrote it, before schema 4 stored
# each distinct set once: the schema-3 form rebuilt from each schema-4 golden
# must come out byte for byte.  starve3's were recorded again when the fair
# lasso became a justice walk instead of a tour of its component.
GOLDEN_SCHEMA3 = {
    "cycle3/check-assume-mp.json": "0c823a4c2f17df1c1d0a970f925e23a6a1621dbc76a6c5b5472d6f7e17162a43",
    "cycle3/check-assume-wf.json": "b06e198c817826af0298770057491396de50eeef47affc5651ce1ce239a8f1e2",
    "cycle3/check-si.json": "4555abf8bedd72aae48e389666e3366b4864b746a53eb80c6c10eb428e4d080e",
    "cycle3/check.json": "0c823a4c2f17df1c1d0a970f925e23a6a1621dbc76a6c5b5472d6f7e17162a43",
    "idle/check-assume-mp.json": "9acd42c5cd10700094a8ca865b340a1e609b6183c386a246fba6aa53bc22263e",
    "idle/check-assume-wf.json": "30f98ea272d1b712346696934df22d4c1720b2b7e98a042806acf481c12ed4d8",
    "idle/check-si.json": "e2bf4f20ea05657118ed93899fa399d41837697d44a7efb86aa06fa32da297f2",
    "idle/check.json": "30f98ea272d1b712346696934df22d4c1720b2b7e98a042806acf481c12ed4d8",
    "ladder3/check-assume-mp.json": "3b4bf966e2cac60847570812c42702552148d1fcf0a9bc8fd7564dc40187fa00",
    "ladder3/check-assume-wf.json": "2cde0a0d5a80636027a6cab0b824001f9c2ac609827f1bca89266cdd847409e6",
    "ladder3/check-si.json": "657edc46cfccafb8d8cf57152868597e29b50308761d6c3dd113a7cecd1a37fa",
    "ladder3/check.json": "2cde0a0d5a80636027a6cab0b824001f9c2ac609827f1bca89266cdd847409e6",
    "mono3/check-assume-mp.json": "68762851bdbf5709e0538bc842e9525479d941ec6930413ecd2986aa40b4df31",
    "mono3/check-assume-wf.json": "ad9a62bdbcf0ddd8aabf241e36af1d61a712535615032d70a0de7f3f8ac3e4bc",
    "mono3/check-si.json": "d1838050566f281e4d2964a279bc7bbd110ca11b11a429c6013083b2c16a4ad3",
    "mono3/check.json": "68762851bdbf5709e0538bc842e9525479d941ec6930413ecd2986aa40b4df31",
    "ring3/check-assume-mp.json": "a13249dbafa18adbb75a3bd32d8c349e095a7cd62c6a051fb2eef833dd6dc43e",
    "ring3/check-assume-wf.json": "d9afdc06d9bb21a32ffc662b964c6fb127de6152b4b2d1e06eab1d6fd477c6a9",
    "ring3/check-si.json": "7d5297daf740c6e724ca2127d39dbac6bff8f16c9d380b913a7d99beb55cf12e",
    "ring3/check.json": "09e154cdac65a97e0e6fbdc40b69b4545373de3de5793a4107a20eafd836526a",
    "starve3/check-assume-mp.json": "21173685e3aa4b04511511db90140c629d9709e174372287689723f6558ac8ed",
    "starve3/check-assume-wf.json": "ae60f2b85e94b58e0c9314469c6ae25c5c111de94ba3016b8236291f74ca8f10",
    "starve3/check-si.json": "d686e4b0e1a97218d0f1dffda0c8985756e5173a27c789281d6075f68cde856e",
    "starve3/check.json": "1ea771711dc194f48d47cd537cb155d33d09ea45f18d710a07988871fab8478c",
    "triangle3/check-assume-mp.json": "5e7184dcfa07ccf4b460d1656d16c5e3ceee990064d356c2a74fe7d952caf937",
    "triangle3/check-assume-wf.json": "9df6b00d670d95abe2732cf623d25789cd8b4ea238a5f1d9685e6b320e7d9dd5",
    "triangle3/check-si.json": "7be26f206e10e7d5b78333696ff40cfd361d67bb01658399b6f7963f0c242aef",
    "triangle3/check.json": "a7618fd642615ddcb7f0d02707dbc7884bfecce53afee6c1b1361fdf38caa557",
    "twodown/check-assume-mp.json": "388e808150be30e2f3ae2b8b74570f8a18aaf6f804453684454dbfd57da7237d",
    "twodown/check-assume-wf.json": "6f3098f9d77b0b38d8119f7a54cf4ec81d445472a1116350adf8abe81feec0c4",
    "twodown/check-si.json": "b29a85c23dc12a5d280f5fe7fb32e0e0d9c05555aaa6f3d93ce7875c9cea09a7",
    "twodown/check.json": "6f3098f9d77b0b38d8119f7a54cf4ec81d445472a1116350adf8abe81feec0c4",
}


@pytest.mark.parametrize("model", MODELS)
def test_golden_reports_rebuild_their_schema3_bytes(model):
    space = load_file(_path(model + ".evt")).system.space
    for way in CHECK_WAYS:
        with open(os.path.join(GOLDEN, model, way + ".json"), encoding="utf-8") as fh:
            text = fh.read()
        assert schema3_digest(text, space) == GOLDEN_SCHEMA3[f"{model}/{way}.json"], way


def without_wf_lassos_digest(text: str) -> str:
    """The sha256 of the report ``text`` with the counterexample of each wf
    lasso dropped, written as a golden file stores a report."""
    report = json.loads(text)
    for entry in report["properties"]:
        cx = entry.get("counterexample")
        if cx and (cx["kind"], cx["assumption"]) == ("lasso", "wf"):
            del entry["counterexample"]
    return hashlib.sha256((json.dumps(report) + "\n").encode()).hexdigest()


# ``without_wf_lassos_digest`` of each golden report recorded again when the
# fair lasso became a justice walk, taken from the report it replaced: the
# reports may differ in their wf lassos' cycles and in nothing else.
GOLDEN_WITHOUT_WF_LASSOS = {
    "starve3/check-assume-wf.json": "995d737251bbc468166f31409ff9482900005cedc5302e94dc746903fef1b7e1",
    "starve3/check-si.json": "87fd75c28259d34a936981461dce29b23a2ae78249ef52df62591a08aa4f0c29",
    "starve3/check.json": "e3fe30d23984c0ef670bce0e572d187361e3b3537bc125c4530887426b3b3f7a",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_WITHOUT_WF_LASSOS))
def test_rerecorded_reports_differ_only_in_their_wf_lassos(name):
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        assert without_wf_lassos_digest(fh.read()) == GOLDEN_WITHOUT_WF_LASSOS[name]


def _files(folder):
    return sorted((model, name) for model in os.listdir(folder)
                  for name in os.listdir(os.path.join(folder, model)))


# schema-2, schema-3 and schema-4 certificates, each as its own schema's
# explain wrote it (schema 3's are the goldens before schema 4, schema 4's
# those before schema 5), stay accepted
@pytest.mark.parametrize("model, name", _files(SCHEMA2))
def test_schema2_certificates_stay_accepted(model, name):
    _accepted(model, os.path.join(SCHEMA2, model, name))


@pytest.mark.parametrize("model, name", _files(SCHEMA3))
def test_schema3_certificates_stay_accepted(model, name):
    with open(os.path.join(SCHEMA3, model, name), "rb") as fh:
        text = fh.read()
    assert hashlib.sha256(text).hexdigest() == GOLDEN_CERT_SCHEMA3[f"{model}/{name}"]
    _accepted(model, os.path.join(SCHEMA3, model, name))


@pytest.mark.parametrize("model, name", _files(SCHEMA4))
def test_schema5_goldens_are_their_schema4_predecessors_made_lean(model, name):
    with open(os.path.join(SCHEMA4, model, name), encoding="utf-8") as fh:
        old = json.load(fh)
    with open(os.path.join(GOLDEN, model, name), encoding="utf-8") as fh:
        new = fh.read()
    assert json.dumps(lean(old, load_file(_path(model + ".evt")).system.space)) + "\n" == new
    _accepted(model, os.path.join(SCHEMA4, model, name))
    _accepted(model, os.path.join(GOLDEN, model, name))


def _accepted(model, path):
    code, out, err = _captured(["check-cert", _path(model + ".evt"), path])
    assert (code, out, err) == (0, "certificate accepted\n", "")


@pytest.mark.parametrize("model", MODELS)
def test_no_command_decodes_the_per_state_relation(tmp_path, monkeypatch, model):
    """Every command reads a loaded model's edges from its offset classes:
    none decodes ``Event.rel``, the term algebra's per-state reference."""
    decoded = []
    rel = Event.rel.fget

    def recording(event):
        if event._rel is None:
            decoded.append(event.name)
        return rel(event)

    monkeypatch.setattr(Event, "rel", property(recording))
    path = _path(model + ".evt")
    golden_outputs(path, str(tmp_path))  # check --oracle four ways, si --json, explain
    for name in os.listdir(tmp_path):
        assert _run(["check-cert", path, str(tmp_path / name)])[0] == 0
    for argv in (["check", path], ["si", path, "--verify"], ["si", path, "--json", "--verify"]):
        assert _run(argv)[0] in (0, 1, 2)
    assert decoded == []


def test_usage_without_subcommand():
    assert main([]) == 2


def test_version_flag():
    assert main(["--version"]) == 0


# --- fuzzing outside input through main() ---------------------------------

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(10**30), 10**30)
    | st.sampled_from([-1, 0, 1, 2**63, True, False]) | st.floats(allow_nan=False)
    | st.text(max_size=6),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=6), kids, max_size=3),
    max_leaves=6,
)


def _captured(argv):
    """``main(argv)`` with its output captured: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _run(argv):
    """``main(argv)`` with its output captured: (exit code, stderr)."""
    code, _, err = _captured(argv)
    return code, err


def _paths(value, path=()):
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


def _replaced(value, path, new):
    if not path:
        return new
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[path[0]] = _replaced(value[path[0]], path[1:], new)
    return copy


@pytest.fixture(scope="module")
def valid_certificates(tmp_path_factory):
    """A valid schema-5 document for mono3 (mp) and idle (wf), by model path."""
    out = {}
    for model, prop in (("mono3.evt", "climb"), ("idle.evt", "reach")):
        cert = tmp_path_factory.mktemp("cert") / f"{prop}.cert.json"
        assert _run(["explain", _path(model), prop, "--out", str(cert)])[0] == 0
        out[_path(model)] = json.loads(cert.read_text())
    return out


@settings(max_examples=150, deadline=None)
@given(data=st.data(), new=_json_values)
def test_fuzzed_certificate_never_crashes(valid_certificates, tmp_path_factory, data, new):
    model = data.draw(st.sampled_from(sorted(valid_certificates)))
    doc = valid_certificates[model]
    path = data.draw(st.sampled_from(list(_paths(doc))))
    bad = tmp_path_factory.mktemp("fuzz") / "cert.json"
    bad.write_text(json.dumps(_replaced(doc, path, new)))
    code, err = _run(["check-cert", model, str(bad)])
    assert code in (0, 1, 2) and "Traceback" not in err, (path, new, err)


_TOKEN = re.compile(r"\w+|\.\.|:=|:in|\[\]|\S")
_tokens = (st.integers(-(10**12), 10**12).map(str) | st.text(max_size=4) | st.sampled_from([
    "", "true", "false", "{", "}", "(", ")", "..", ":=", ":in", "[]", ",", "=", "!=", "<",
    "+", "-", "*", "/", "mod", "not", "and", "or", "x", "y", "bool", "skip", "when", "then",
    "var", "init", "invariant", "event", "variant", "property", "leadsto", "ensures",
    "under", "mp", "wf", "using", "with", "si", "via", "togo", "down", "inc", "idle",
]))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), new=_tokens)
def test_fuzzed_model_never_crashes(tmp_path_factory, data, new):
    name = data.draw(st.sampled_from(MODELS)) + ".evt"
    with open(_path(name), encoding="utf-8") as fh:
        text = fh.read()
    spans = [m.span() for m in _TOKEN.finditer(text)]
    start, end = data.draw(st.sampled_from(spans))
    src = tmp_path_factory.mktemp("fuzz") / name
    src.write_text(text[:start] + new + text[end:])
    code, err = _run(["check", str(src), "--oracle", "--max-states", "64"])
    assert code in (0, 1, 2) and "Traceback" not in err, (start, new, err)
