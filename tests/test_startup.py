"""What a command imports at start-up: no heavy standard modules, and every
``fixleads`` module that the benchmark's tracer wraps by name, since
``perfbench/tracer.py`` looks its targets up in ``sys.modules`` after
``import fixleads`` and ``import fixleads.cli``.  Deterministic: no timings."""
import json
import os
import subprocess
import sys

from test_bench_bindings import _targets

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# a start-up cost with no use at run time: ``dataclasses`` alone pulls in
# ``inspect``, ``ast``, ``dis`` and ``copy``; ``typing`` would only spell
# annotations, which ``from __future__ import annotations`` never evaluates
HEAVY = ["dataclasses", "inspect", "ast", "dis", "copy", "traceback", "typing"]


def _loaded(statement: str, names) -> dict:
    """Which of ``names`` are in ``sys.modules`` after ``statement``, in a
    fresh interpreter without ``site``."""
    report = f"print(json.dumps({{n: n in sys.modules for n in {names!r}}}))"
    code = f"{statement}; import json, sys; {report}"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(out.stdout)


def test_cli_start_up_imports_no_heavy_modules():
    loaded = _loaded("import fixleads.cli", HEAVY)
    assert [n for n, present in loaded.items() if present] == []


def test_import_fixleads_loads_every_traced_module():
    # ``install()`` imports ``fixleads.cli`` itself; every other module must
    # come with the package, or a lazy ``__init__`` would break ``--trace 1``
    modules = sorted({"fixleads." + t.split(":")[0] for t in _targets()} - {"fixleads.cli"})
    assert "fixleads.certificates" in modules and "fixleads.transformers" in modules
    loaded = _loaded("import fixleads", modules)
    assert [n for n, present in loaded.items() if not present] == []
