"""fixleads benchmark: seeded model families driven through the real CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ring-wf --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all

Each run generates its workload's models from the seed (``models.py``) and
repeats a pass over the workload's command script until ``--seconds`` have
passed, one child process at a time (a closed loop with one client).  Every
command goes through ``child.py``, which imports fixleads from ``src/`` of
the checkout.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

End-to-end metrics (``--trace 0``).  A time is the sum, over the commands
it covers, of each command's fastest run among the run's passes.  On a
shared machine other tenants slow a processor by up to half, for seconds
to minutes at a time, and they only ever slow a command down, so the
fastest run is the closest reading of the command's own cost; on a shared
2-processor machine it spread from run to run up to three times less than
the median of the same passes.  For the same reason the driver pins
itself, and so the next child, to the processor that runs a short
reference loop faster just before each command.

    setup_s       seconds for ``load_file`` on every model of the workload,
                  the fastest of three loads in a process of its own before
                  each pass
    check_s       ``fixleads check --oracle --json`` over the models
    explain_s     ``fixleads explain`` for the explained properties
    check_cert_s  ``fixleads check-cert`` on the certificates written
    si_s          ``fixleads si --verify`` over the models
    peak_rss_mb   highest peak resident set of any command, 10^6 B
    report_mb     bytes of the ``check --json`` reports without their
                  ``time_ms`` fields, so the count repeats exactly, 10^6 B
    cert_mb       bytes of the certificate files written, 10^6 B

``--trace 1`` alternates untraced and traced passes over the script.  The
traced passes run ``child.py trace``, which wraps fixleads' public
functions (``tracer.py``); the self times and counters of the fastest
traced pass, summed over its commands, are the per-layer metrics, and
``trace.overhead_s`` is traced ``check_s`` minus untraced ``check_s``.

The correctness gate counts one operation per command exit code, per
verdict, per oracle agreement, per counterexample (replayed through
``validate_counterexample``) and per certificate (``check-cert``).  Every
mismatch is a failed operation; the run is never aborted.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
CPUS = sorted(os.sched_getaffinity(0))
sys.path.insert(0, HERE)

import models  # noqa: E402


@dataclass(frozen=True)
class Workload:
    build: Callable[[int], List[models.Model]]
    explain: Optional[Tuple[str, ...]] = None  # None: every passing property


WORKLOADS: Dict[str, Workload] = {
    "ring-wf": Workload(lambda seed: [
        models.ring(4, seed, assume=("wf", "mp", "wf-si")),
        models.ring(4, seed, starve=True, assume=("wf", "mp")),
    ]),
    "lattice-mp": Workload(lambda seed: [models.lattice(3, 9, seed)], explain=("top",)),
}

END_TO_END = {
    "setup_s": "s", "check_s": "s", "explain_s": "s", "check_cert_s": "s", "si_s": "s",
    "peak_rss_mb": "MB", "report_mb": "MB", "cert_mb": "MB",
}
COMMAND_METRIC = {"check": "check_s", "explain": "explain_s", "check-cert": "check_cert_s", "si": "si_s"}

PER_LAYER = {
    "dsl.parse_s": "s", "dsl.elaborate_s": "s",
    "states.enumerate_s": "s", "states.eval_pred_s": "s", "states.count": "count",
    "events.transitions": "count", "events.apply_calls": "count", "events.apply_s": "s",
    "events.si_s": "s",
    "transformers.lfp_calls": "count", "transformers.gfp_calls": "count",
    "transformers.iterations": "count",
    "mp.leadsto_s": "s",
    "wf.leadsto_s": "s", "wf.fair_loop_calls": "count", "wf.fair_loop_s": "s",
    "wf.fair_loop_useful_ratio": "ratio",
    "variants.rule_s": "s",
    "oracle.search_s": "s", "oracle.validate_s": "s", "oracle.cx_steps": "count",
    "certificates.derive_s": "s", "certificates.nodes": "count",
    "certificates.to_json_s": "s", "certificates.from_json_s": "s", "certificates.check_s": "s",
    "verdicts.to_json_s": "s", "cli.self_s": "s", "cli.report_bytes": "B",
    "unattributed_s": "s", "trace.overhead_s": "s",
}
COUNTERS = ("transformers.lfp_calls", "transformers.gfp_calls", "transformers.iterations",
            "oracle.cx_steps", "certificates.nodes")
TIME_MS = re.compile(rb',\n *"time_ms": [-+.0-9eE]+')


@dataclass(frozen=True)
class Command:
    kind: str  # a COMMAND_METRIC key
    model: models.Model
    args: Tuple[str, ...]
    stdout: str
    prop: str = ""  # the property explain and check-cert are about
    cert: Optional[str] = None  # the certificate explain writes


@dataclass
class Gate:
    attempted: int = 0
    failed: int = 0
    cases: List[dict] = field(default_factory=list)  # counterexamples to replay

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 10:
                print(f"perfbench: FAILED {what}", file=sys.stderr)


def script(workload: Workload, model_list, work: str) -> List[Command]:
    cmds = []
    for m in model_list:
        path = os.path.join(work, f"{m.name}.evt")
        base = os.path.join(work, m.name)
        cmds.append(Command("check", m, ("check", path, "--oracle", "--json"), base + ".check.json"))
        explained = [p for p, holds in m.expected.items()
                     if holds and (workload.explain is None or p in workload.explain)]
        for p in explained:
            cert = f"{base}.{p}.cert.json"
            cmds.append(Command("explain", m, ("explain", path, p, "--out", cert), base + ".out", p, cert))
        for p in explained:
            cert = f"{base}.{p}.cert.json"
            cmds.append(Command("check-cert", m, ("check-cert", path, cert), base + ".out", p))
        cmds.append(Command("si", m, ("si", path, "--verify"), base + ".out"))
    return cmds


def _spin() -> float:
    start = time.perf_counter()
    n = 0
    for i in range(20000):
        n += i * i % 7
    return time.perf_counter() - start


def pin_fastest_cpu() -> None:
    """Pin this process, and so the next child, to the processor that runs a
    short reference loop fastest right now."""
    if len(CPUS) < 2:
        return
    speed = {}
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        speed[cpu] = min(_spin(), _spin())
    os.sched_setaffinity(0, {min(CPUS, key=speed.get)})


def spawn(argv: List[str], out: str) -> Tuple[float, int, int]:
    """Run one child; returns (wall seconds, exit code, peak RSS in KiB)."""
    pin_fastest_cpu()
    err = out + ".err"
    with open(out, "wb") as fh, open(err, "wb") as fh_err:
        start = time.perf_counter()
        code = subprocess.call([sys.executable, CHILD] + argv, stdout=fh, stderr=fh_err, cwd=ROOT)
        wall = time.perf_counter() - start
    with open(err, "rb") as fh:
        last = (fh.read().splitlines() or [b""])[-1].split()
    rss = int(last[1]) if len(last) == 2 and last[0] == b"peak_rss_kib" else 0
    return wall, code, rss


def gate_command(gate: Gate, cmd: Command, code: int) -> Tuple[int, int]:
    """Check one command's outcome; returns (report bytes, certificate bytes)."""
    what = f"{cmd.kind} {cmd.model.name} {cmd.prop}".strip()
    if cmd.kind == "check":
        gate.check(code == (0 if all(cmd.model.expected.values()) else 1), f"{what}: exit {code}")
        try:
            with open(cmd.stdout, "rb") as fh:
                raw = fh.read()
            entries = {e["name"]: e for e in json.loads(raw)["properties"]}
        except (OSError, ValueError, KeyError, TypeError):
            raw, entries = b"", {}
        for prop, holds in cmd.model.expected.items():
            entry = entries.get(prop, {})
            gate.check(entry.get("verdict", {}).get("holds") is holds, f"{what}: verdict of {prop}")
            gate.check(entry.get("agreement") is True, f"{what}: oracle agreement on {prop}")
            if not holds:
                if "counterexample" in entry:
                    gate.cases.append({"model": cmd.args[1], "property": prop,
                                       "cx": entry["counterexample"]})
                else:
                    gate.check(False, f"{what}: no counterexample for {prop}")
        return len(TIME_MS.sub(b"", raw)), 0
    if cmd.kind == "explain":
        size = os.path.getsize(cmd.cert) if os.path.exists(cmd.cert) else 0
        gate.check(code == 0 and size > 0, f"{what}: exit {code}")
        return 0, size
    with open(cmd.stdout, "rb") as fh:
        out = fh.read()
    expect = b"certificate accepted" if cmd.kind == "check-cert" else b"verified against trace reachability"
    gate.check(code == 0 and expect in out, f"{what}: exit {code}")
    return 0, 0


def layer_metrics(trace: dict, wall: float) -> Tuple[Dict[str, float], Dict[str, dict]]:
    """Per-layer self times and counters of one traced command, and its models."""
    names, spans = trace["names"], trace["spans"]
    covered = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    self_ns: Dict[str, int] = defaultdict(int)
    calls: Counter = Counter()
    root_ns = 0
    for i, (nid, start, end, parent) in enumerate(spans):
        self_ns[names[nid]] += end - start - covered[i]
        calls[names[nid]] += 1
        if parent < 0:
            root_ns += end - start
    out = {f"{name}_s": ns / 1e9 for name, ns in self_ns.items() if name not in ("hook", "cli")}
    out["cli.self_s"] = self_ns["cli"] / 1e9
    out["unattributed_s"] = wall - root_ns / 1e9
    out["events.apply_calls"] = calls["events.apply"]
    out["wf.fair_loop_calls"] = calls["wf.fair_loop"]
    out["wf.fair_loop_useful"] = trace["counters"].get("wf.fair_loop_useful", 0)
    for key in COUNTERS:
        out[key] = trace["counters"].get(key, 0)
    return out, trace["models"]


@dataclass
class Pass:
    """One pass over the command script."""

    setup: float = 0.0  # 0.0: the set-up process failed
    walls: List[float] = field(default_factory=list)  # seconds, one per command
    rss_kib: int = 0
    report_bytes: int = 0
    cert_bytes: int = 0
    layers: Dict[str, float] = field(default_factory=lambda: defaultdict(float))
    models: Dict[str, dict] = field(default_factory=dict)


def run_pass(cmds: List[Command], gate: Gate, work: str, traced: bool) -> Pass:
    result = Pass()
    paths = sorted({cmd.args[1] for cmd in cmds})
    setup_out = os.path.join(work, "setup.out")
    _, code, _ = spawn(["setup"] + paths, setup_out)
    try:
        with open(setup_out, encoding="utf-8") as fh:
            result.setup = float(json.load(fh))
    except (OSError, ValueError, TypeError):
        pass
    gate.check(code == 0 and result.setup > 0, f"set-up: exit {code}")
    for i, cmd in enumerate(cmds):
        trace_file = os.path.join(work, f"trace{i}.json")
        argv = (["trace", trace_file] if traced else ["cli"]) + list(cmd.args)
        wall, code, rss = spawn(argv, cmd.stdout)
        result.walls.append(wall)
        result.rss_kib = max(result.rss_kib, rss)
        report, cert = gate_command(gate, cmd, code)
        result.report_bytes += report
        result.cert_bytes += cert
        if traced:
            try:
                with open(trace_file, encoding="utf-8") as fh:
                    layers, seen = layer_metrics(json.load(fh), wall)
            except (OSError, ValueError):
                gate.check(False, f"{cmd.kind} {cmd.model.name} {cmd.prop}: no trace written")
                continue
            for key, value in layers.items():
                result.layers[key] += value
            result.layers["cli.report_bytes"] += report
            for stats in seen:
                result.models.setdefault(cmd.model.name, stats)
    return result


def validate_counterexamples(gate: Gate, work: str) -> None:
    """Replay each distinct counterexample once; every occurrence counts."""
    distinct: Dict[str, dict] = {}
    for case in gate.cases:
        distinct.setdefault(json.dumps(case, sort_keys=True), case)
    if not distinct:
        return
    cases_file = os.path.join(work, "cases.json")
    out_file = os.path.join(work, "cases.out")
    with open(cases_file, "w", encoding="utf-8") as fh:
        json.dump(list(distinct.values()), fh)
    _, code, _ = spawn(["validate", cases_file], out_file)
    try:
        with open(out_file, encoding="utf-8") as fh:
            ok = dict(zip(distinct, json.load(fh)))
    except (OSError, ValueError):
        ok = {}
    for case in gate.cases:
        key = json.dumps(case, sort_keys=True)
        gate.check(code == 0 and ok.get(key) is True,
                   f"counterexample of {case['property']} rejected by validate_counterexample")


def fastest(passes: List[Pass], cmds: List[Command], metric: str) -> float:
    """Sum over the metric's commands of each command's fastest run."""
    return sum(min(p.walls[i] for p in passes)
               for i, cmd in enumerate(cmds) if COMMAND_METRIC[cmd.kind] == metric)


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[workload_name]
    model_list = workload.build(seed)
    work = os.path.join(HERE, ".work", f"{workload_name}-{seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        for m in model_list:
            with open(os.path.join(work, f"{m.name}.evt"), "w", encoding="utf-8") as fh:
                fh.write(m.text)
        gate = Gate()
        cmds = script(workload, model_list, work)
        plain: List[Pass] = []
        traced: List[Pass] = []
        deadline = time.perf_counter() + seconds
        while True:
            use_trace = trace and len(plain) > len(traced)
            (traced if use_trace else plain).append(run_pass(cmds, gate, work, use_trace))
            if time.perf_counter() >= deadline and (not trace or traced):
                break
        validate_counterexamples(gate, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run is still using it

    if trace:
        # the layers of the fastest traced pass, so that they add up
        best = min(traced, key=lambda p: sum(p.walls))
        values = {key: best.layers.get(key, 0) for key in PER_LAYER}
        calls = best.layers.get("wf.fair_loop_calls", 0)
        values["wf.fair_loop_useful_ratio"] = best.layers.get("wf.fair_loop_useful", 0) / calls if calls else 0.0
        values["states.count"] = sum(m["states"] for m in best.models.values())
        values["events.transitions"] = sum(m["transitions"] for m in best.models.values())
        values["trace.overhead_s"] = fastest(traced, cmds, "check_s") - fastest(plain, cmds, "check_s")
        units = PER_LAYER
    else:
        values = {metric: fastest(plain, cmds, metric) for metric in COMMAND_METRIC.values()}
        values["setup_s"] = min((p.setup for p in plain if p.setup), default=0.0)
        values["peak_rss_mb"] = max(p.rss_kib for p in plain) * 1024 / 1e6
        values["report_mb"] = plain[0].report_bytes / 1e6
        values["cert_mb"] = plain[0].cert_bytes / 1e6
        units = END_TO_END
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in units.items()}
    return {"correct": gate.failed == 0, "attempted": gate.attempted,
            "failed": gate.failed, "metrics": metrics,
            "passes": len(plain) + len(traced)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "fixleads", "cli.py")):
        print(f"perfbench: no fixleads sources under {ROOT}/src", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result = run(name, args.seed, args.seconds, bool(args.trace))
        passes = result.pop("passes")
        print(f"{name}: {passes} passes, {result['attempted']} checks, {result['failed']} failed")
        for metric, m in result["metrics"].items():
            print(f"  {metric:28s} {m['value']:12.6f} {m['unit']}")
        results[name] = result
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
