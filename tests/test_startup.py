"""What a command imports at start-up, each in a fresh interpreter without
``site``: no heavy standard modules on any command's path, and no
``fixleads`` module that the command does not call.  ``import fixleads``
registers every submodule but ``cli`` in ``sys.modules`` as a lazy module,
which runs on its first attribute access, and ``perfbench/tracer.py``
looks its targets up there after ``import fixleads`` and
``import fixleads.cli``.  Deterministic: no timings."""
import json
import os
import subprocess
import sys

import pytest

from fixleads.cli import main
from test_bench_bindings import TRACER, _targets

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRIANGLE3 = os.path.join(ROOT, "tests", "data", "triangle3.evt")

# a start-up cost with no use at run time: ``dataclasses`` alone pulls in
# ``inspect``, ``ast``, ``dis`` and ``copy``; ``typing`` would only spell
# annotations, which ``from __future__ import annotations`` never evaluates
HEAVY = ["dataclasses", "inspect", "ast", "dis", "copy", "traceback", "typing"]

# ``fixleads.__all__`` before its submodules were loaded lazily
ALL = [
    "Basic", "CertificateError", "Choice", "Counterexample", "DEFAULT_STATE_CAP", "Disj",
    "Dovetail", "DslError", "Elaborated", "EvalError", "Event", "EventSystem", "FixpointError",
    "Guard", "IterateTrace", "ModelError", "Precond", "Property", "Rel", "SelfCheckDefect", "Seq",
    "Skip", "SpaceError", "SpaceMismatch", "SpecAst", "StateSet", "StateSpace", "Trans", "VarDecl",
    "VariantError", "VariantFn", "Verdict", "apply", "cert_from_json", "cert_to_json",
    "certificates", "check_certificate", "check_variant_theorem", "derive_certificate_mp",
    "derive_certificate_wf", "dsl", "elaborate", "ensures_mp", "ensures_wf", "eval_bool",
    "eval_expr", "eval_pred", "events", "exprs", "fair_loop", "fair_loop_liberal",
    "fair_loop_termination", "gfp", "grd", "leadsto_mp", "leadsto_mp_si", "leadsto_wf",
    "leadsto_wf_si", "lfp", "liberal", "load_file", "mp", "mp_step", "oracle",
    "oracle_mp", "oracle_reachable", "oracle_wf", "parse", "pre", "print_spec", "records",
    "rule_mp_variant", "rule_wf_to_mp", "states", "system_choice", "to_text", "transformers",
    "validate_counterexample", "variants", "verdicts", "wf", "wf_step",
]

# the modules that ran: those loaded, lazily or not, and not merely registered
RAN = ("sorted(n[9:] for n, m in sys.modules.items()"
       " if n.startswith('fixleads.') and type(m) is types.ModuleType)")


def _run(code: str, *argv: str):
    """The JSON that ``code`` prints last, run in a fresh interpreter
    without ``site`` with ``argv`` as its arguments."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, "-S", "-c", code, *argv], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def _loaded(statement: str, names) -> dict:
    """Which of ``names`` are in ``sys.modules`` after ``statement``."""
    return _run(f"{statement}; import json, sys; "
                f"print(json.dumps({{n: n in sys.modules for n in {names!r}}}))")


def test_cli_start_up_imports_no_heavy_modules():
    loaded = _loaded("import fixleads.cli", HEAVY)
    assert [n for n, present in loaded.items() if present] == []


def test_import_fixleads_loads_every_traced_module():
    # ``install()`` imports ``fixleads.cli`` itself; every other module must
    # be in ``sys.modules`` after the package, or ``--trace 1`` breaks
    modules = sorted({"fixleads." + t.split(":")[0] for t in _targets()} - {"fixleads.cli"})
    assert "fixleads.certificates" in modules and "fixleads.transformers" in modules
    loaded = _loaded("import fixleads", modules)
    assert [n for n, present in loaded.items() if not present] == []


def test_import_fixleads_runs_no_submodule():
    assert _run(f"import json, sys, types, fixleads; print(json.dumps({RAN}))") == []


def test_the_tracer_wraps_every_target_after_import_fixleads():
    """``Tracer().install()`` finds each target on the lazy modules, and no
    ``fixleads`` module keeps a binding of an unwrapped one."""
    code = f"""
import importlib.util, json, sys
import fixleads
spec = importlib.util.spec_from_file_location("perfbench_tracer", {TRACER!r})
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
tracer.Tracer().install()
unwrapped, originals = [], set()
for target in [t for ts in tracer.SPANS.values() for t in ts] + tracer.COUNTED:
    mod_name, attr = target.split(":")
    owner = sys.modules["fixleads." + mod_name]
    for part in attr.split("."):
        owner = getattr(owner, part)
    if hasattr(owner, "__wrapped__"):
        originals.add(id(owner.__wrapped__))
    else:
        unwrapped.append(target)
kept = sorted(f"{{n}}.{{k}}" for n, m in sys.modules.items() if n.startswith("fixleads")
              for k, v in vars(m).items() if id(v) in originals)
print(json.dumps([unwrapped, kept]))
"""
    assert _run(code) == [[], []]


def test_the_public_names_are_those_of_the_defining_modules():
    """``__all__`` keeps its names, ``import *`` binds them all, and each is
    the object its module defines, found by ``__module__`` where it has one."""
    code = """
import json, sys, types, fixleads
star = {}
exec("from fixleads import *", star)
wrong = []
for name in fixleads.__all__:
    obj = getattr(fixleads, name)
    if isinstance(obj, types.ModuleType):
        ok = sys.modules["fixleads." + name] is obj
    else:
        owners = [n for n, m in sys.modules.items()
                  if n.startswith("fixleads.") and vars(m).get(name) is obj]
        home = getattr(obj, "__module__", "")
        ok = bool(owners) and (home in owners or not home.startswith("fixleads"))
    if not ok or star.get(name) is not obj:
        wrong.append(name)
print(json.dumps([fixleads.__all__, sorted(set(star) - {"__builtins__"}), wrong]))
"""
    names, star, wrong = _run(code)
    assert names == ALL and star == ALL and wrong == []


COMMON = ["cli", "dsl", "events", "exprs", "records", "states", "variants", "verdicts"]

# triangle3 has a failing property, so check runs the oracle without --oracle
COMMANDS = {
    "check": (["check", TRIANGLE3], 1, ["mp", "oracle", "wf"]),
    "check --oracle": (["check", TRIANGLE3, "--oracle"], 1, ["mp", "oracle", "wf"]),
    "explain": (["explain", TRIANGLE3, "top_wf", "--out", "{cert}"], 0,
                ["certificates", "mp", "wf"]),
    "check-cert": (["check-cert", TRIANGLE3, "{cert}"], 0, ["certificates", "mp", "wf"]),
    "si": (["si", TRIANGLE3], 0, []),
    "si --verify": (["si", TRIANGLE3, "--verify"], 0, ["oracle"]),
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_each_command_runs_only_the_modules_it_calls(tmp_path, capsys, command):
    argv, code, extra = COMMANDS[command]
    cert = str(tmp_path / "top_wf.cert.json")
    if command == "check-cert":
        assert main(["explain", TRIANGLE3, "top_wf", "--out", cert]) == 0
        capsys.readouterr()
    argv = [a.replace("{cert}", cert) for a in argv]
    got = _run(f"import json, sys, types\nfrom fixleads.cli import main\n"
               f"code = main(sys.argv[1:])\n"
               f"print(json.dumps([code, {RAN}, [n for n in {HEAVY!r} if n in sys.modules]]))",
               *argv)
    assert got == [code, sorted(COMMON + extra), []]


def test_python_m_runs_the_cli_without_a_warning():
    # runpy warns, and runs it twice, if ``import fixleads`` put ``cli`` in sys.modules
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, "-S", "-W", "error", "-m", "fixleads.cli", "--version"],
                         env=env, capture_output=True, text=True)
    assert (out.returncode, out.stdout.strip(), out.stderr) == (0, "0.1.0", "")
