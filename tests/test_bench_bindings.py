"""Every function the benchmark's tracer wraps by name still exists, and the
benchmark's own child process runs the CLI traced and replays
counterexamples, so a refactor that drops or reshapes what it reads fails
here and not only in a traced benchmark run."""
import importlib
import importlib.util
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACER = os.path.join(ROOT, "perfbench", "tracer.py")
CHILD = os.path.join(ROOT, "perfbench", "child.py")
DATA = os.path.join(ROOT, "tests", "data")


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [t for ts in tracer.SPANS.values() for t in ts] + list(tracer.COUNTED)


@pytest.mark.parametrize("target", _targets())
def test_tracer_target_resolves(target):
    mod_name, attr = target.split(":")
    owner = importlib.import_module(f"fixleads.{mod_name}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def _child(*argv) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-B", CHILD, *argv], capture_output=True, text=True,
                          cwd=ROOT, timeout=120)


def test_the_benchmark_child_traces_the_cli_and_replays_counterexamples(tmp_path):
    """``perfbench/child.py``, unchanged, as the benchmark runs it: traced
    ``check --oracle --json``, ``explain``, ``check-cert`` and ``si --verify``
    on ring3 and ``check`` on starve3 exit as the CLI does, each dump counts
    the model's transitions (``Event.rel``) and ring3's check counts useful
    fair loops (``fair_loop``'s arguments) and fixpoints (``lfp``'s result);
    ``validate`` replays starve3's two counterexamples through
    ``StateSpace.index_of`` and accepts both."""
    ring3, starve3 = os.path.join(DATA, "ring3.evt"), os.path.join(DATA, "starve3.evt")
    cert = str(tmp_path / "enter_wf.cert.json")
    runs = [(["check", ring3, "--oracle", "--json"], 0), (["explain", ring3, "enter_wf", "--out", cert], 0),
            (["check-cert", ring3, cert], 0), (["si", ring3, "--verify"], 0),
            (["check", starve3, "--oracle", "--json"], 1)]
    dumps = []
    for k, (argv, code) in enumerate(runs):
        out = tmp_path / f"trace{k}.json"
        done = _child("trace", str(out), *argv)
        assert done.returncode == code, (argv, done.stderr)
        dumps.append(json.loads(out.read_text()))
        assert dumps[-1]["models"] and dumps[-1]["models"][0]["transitions"] > 0, argv
    assert dumps[0]["counters"]["wf.fair_loop_useful"] > 0
    assert dumps[0]["counters"]["transformers.lfp_calls"] > 0
    report = json.loads(done.stdout)  # starve3's check
    cases = [{"model": starve3, "property": p["name"], "cx": p["counterexample"]}
             for p in report["properties"] if "counterexample" in p]
    (tmp_path / "cases.json").write_text(json.dumps(cases))
    done = _child("validate", str(tmp_path / "cases.json"))
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [True, True]
