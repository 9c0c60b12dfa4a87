"""Child-process entry point: every fixleads call the benchmark times runs here.

    python3 perfbench/child.py cli ARGS...              the fixleads CLI
    python3 perfbench/child.py trace OUT ARGS...        the CLI with spans written to OUT
    python3 perfbench/child.py setup MODEL...           seconds to load the models, as JSON
    python3 perfbench/child.py validate CASES           replay counterexamples, JSON verdicts

fixleads is imported from ``src/`` of the checkout this file sits in, never
from an installed copy; without it the process exits with code 2.  The last
line on standard error is this process's peak resident set in KiB
(``VmHWM``).  The parent cannot take it from ``wait4``: Linux carries the
parent's own peak across fork and exec into the child's ``ru_maxrss``.
"""
from __future__ import annotations

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_fixleads() -> None:
    sys.path.insert(0, SRC)
    try:
        import fixleads
    except ImportError as exc:
        _fail(f"cannot import fixleads from {SRC}: {exc}")
    if os.path.dirname(os.path.dirname(os.path.abspath(fixleads.__file__))) != SRC:
        _fail(f"fixleads was imported from {fixleads.__file__}, not from {SRC}")


def setup(paths, reps: int = 3) -> float:
    """Fewest seconds ``load_file`` took for every model, over ``reps`` tries."""
    from fixleads import load_file

    times = []
    for _ in range(reps):
        start = time.perf_counter()
        for path in paths:
            load_file(path)
        times.append(time.perf_counter() - start)
    return min(times)


def validate(cases: list) -> list:
    """``validate_counterexample`` on each ``{model, property, cx}`` case."""
    from fixleads import Counterexample, load_file, validate_counterexample

    loaded = {}
    out = []
    for case in cases:
        if case["model"] not in loaded:
            loaded[case["model"]] = load_file(case["model"])
        elab = loaded[case["model"]]
        sys_, space = elab.system, elab.system.space
        prop = next(p for p in elab.properties if p.name == case["property"])
        b = prop.q & sys_.strongest_invariant() if prop.with_si else prop.q
        cx = case["cx"]

        def steps(key):
            return [(s["event"], space.index_of(s["state"])) for s in cx.get(key, [])]

        counterexample = Counterexample(
            cx["kind"], space.index_of(cx["start"]), steps("prefix"), steps("cycle"),
            dict(cx.get("fairness_witness", {})), cx["assumption"],
        )
        out.append(bool(validate_counterexample(sys_, counterexample, b)))
    return out


def main(argv) -> int:
    mode, rest = argv[0], argv[1:]
    _import_fixleads()
    if mode == "cli":
        from fixleads.cli import main as cli_main

        return cli_main(rest)
    if mode == "trace":
        from tracer import Tracer
        from fixleads.cli import main as cli_main

        tracer = Tracer()
        tracer.install()
        try:
            return cli_main(rest[1:])
        finally:
            tracer.dump(rest[0])
    if mode == "setup":
        json.dump(setup(rest), sys.stdout)
        return 0
    if mode == "validate":
        with open(rest[0], encoding="utf-8") as fh:
            json.dump(validate(json.load(fh)), sys.stdout)
        return 0
    _fail(f"unknown mode {mode!r}")


def peak_rss_kib() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


if __name__ == "__main__":
    try:
        code = main(sys.argv[1:])
    finally:
        sys.stdout.flush()
        print(f"peak_rss_kib {peak_rss_kib()}", file=sys.stderr)
    sys.exit(code)
