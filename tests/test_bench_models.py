"""The benchmark's model families, checked end to end through the CLI: each
verdict is the one the generator derives from how the model is built, and
the trace oracle agrees with every fixpoint verdict.  ``perfbench/models.py``
is imported read-only, as ``test_bench_bindings.py`` imports the tracer."""
import contextlib
import importlib.util
import io
import json
import os
import sys

import pytest

from fixleads.cli import main

MODELS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench", "models.py")


def _families():
    spec = importlib.util.spec_from_file_location("perfbench_models", MODELS)
    models = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = models  # its dataclass looks its module up there
    spec.loader.exec_module(models)
    return {
        "ring4": models.ring(4, 1, assume=("wf", "mp", "wf-si")),
        "starve4": models.ring(4, 1, starve=True, assume=("wf", "mp")),
        "lattice3x9": models.lattice(3, 9, 1),
        "ring5": models.ring(5, 2, assume=("wf", "mp", "wf-si")),
    }


FAMILIES = _families()


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_benchmark_model_verdicts_and_oracle_agreement(tmp_path, name):
    model = FAMILIES[name]
    path = tmp_path / f"{name}.evt"
    path.write_text(model.text)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["check", str(path), "--oracle", "--json"])
    report = json.loads(out.getvalue())
    verdicts = {p["name"]: p["verdict"]["holds"] for p in report["properties"]}
    assert verdicts == model.expected
    assert all(p["agreement"] is True for p in report["properties"])
    assert code == (0 if all(model.expected.values()) else 1)
