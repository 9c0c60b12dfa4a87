"""Every function the benchmark's tracer wraps by name still exists, so a
refactor that drops one fails here and not only in a traced benchmark run."""
import importlib
import importlib.util
import os

import pytest

TRACER = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench", "tracer.py")


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
