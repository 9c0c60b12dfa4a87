"""Command line behavior: subcommands, exit codes, JSON output."""
import json
import os

import pytest

from fixleads import cli
from fixleads.cli import main

DATA = os.path.join(os.path.dirname(__file__), "data")


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
    report = json.loads(capsys.readouterr().out)
    assert report["schema"] == 2
    assert report["system"] == "mono3"
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
    assert payload["schema"] == 1
    assert payload["assumption"] == "wf"
    assert payload["certificate"]["rule"] in ("SBR", "STR", "SDR")
    assert main(["check-cert", _path("idle.evt"), str(out_file)]) == 0
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


def test_check_cert_rejects_tampering(tmp_path, capsys):
    out_file = tmp_path / "climb.cert.json"
    assert main(["explain", _path("mono3.evt"), "climb", "--out", str(out_file)]) == 0
    payload = json.loads(out_file.read_text())
    # claim a start set larger than the certificate's conclusion
    payload["claimed"]["a"] = [{"x": 0}, {"x": 1}, {"x": 2}]
    node = payload["certificate"]
    while node["rule"] == "STR":
        node = node["right"]
    node["q"] = [{"x": 1}]  # corrupt the final target
    out_file.write_text(json.dumps(payload))
    assert main(["check-cert", _path("mono3.evt"), str(out_file)]) == 1


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
    assert "failing_level" in out
    assert main(["check", str(src), "--oracle", "--json"]) == 1
    entry = json.loads(capsys.readouterr().out)["properties"][-1]
    assert entry["verdict"]["details"]["failing_level"]["n"] == 0
    assert entry["oracle"]["holds"] is holds and entry["agreement"] is True
    # a false property keeps its (validated) counterexample
    assert ("counterexample" in entry) is not holds


SDR_PARTS_NUMBER = {
    "assumption": "wf",
    "claimed": {"a": [], "b": []},
    "certificate": {"rule": "SDR", "q": [], "parts": 5},
}


@pytest.mark.parametrize("case", ["malformed-json", "top-level-list", "parts-number",
                                  "check-directory", "binary-model"])
def test_bad_input_exits_2_without_traceback(tmp_path, capsys, case):
    bad = tmp_path / "bad"
    argv = ["check-cert", _path("mono3.evt"), str(bad)]
    if case == "malformed-json":
        bad.write_text("{not json")
    elif case == "top-level-list":
        bad.write_text("[]")
    elif case == "parts-number":
        bad.write_text(json.dumps(SDR_PARTS_NUMBER))
    elif case == "check-directory":
        argv = ["check", str(tmp_path)]
    else:
        bad.write_bytes(b"\xff\xfe\x00")
        argv = ["check", str(bad)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_unexpected_exception_is_a_defect(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_si", broken)
    assert main(["si", _path("mono3.evt")]) == 3
    assert "internal defect: RuntimeError: boom" in capsys.readouterr().err


def test_usage_without_subcommand():
    assert main([]) == 2


def test_version_flag():
    assert main(["--version"]) == 0
