"""Span and counter recorder that wraps fixleads' public functions from outside.

``install()`` replaces each traced function at every place it is bound: the
defining module, every ``fixleads`` module that imported it by name, and
the class for methods.  A span is ``(name, start_ns, end_ns, parent)`` and is
kept in memory until ``dump()``.  Counters that need the result of a call
(fixpoint iterations, certificate nodes, ...) are computed after the span
closes, inside a ``hook`` span, so the time they take is charged to no
layer.

``exprs`` has no span: ``eval_expr`` runs millions of times and wrapping it
would distort the run.  Its time stays in the ``dsl`` and ``states`` spans.

Which end-to-end metric each layer should move, and where:

    dsl.*, states.*              setup_s and every command time, both workloads
    events.apply_*, transitions  check_s, explain_s on ring-wf
    events.si_s                  si_s on both; check_s (``with si``) on both
    transformers.*               check_s on ring-wf and lattice-mp
    mp.leadsto_s                 check_s on lattice-mp
    wf.*                         check_s, explain_s on ring-wf
    variants.rule_s              check_s on lattice-mp
    oracle.*                     check_s on ring-wf (lassos under wf and mp)
                                 and lattice-mp (a full pass, no
                                 counterexample); si_s (``oracle_reachable``)
    certificates.*               explain_s, check_cert_s, cert_mb on both
    cli.self_s, verdicts.*,      check_s, explain_s, report_mb, peak_rss_mb
    cli.report_bytes             on both (mostly JSON encoding and I/O)
    unattributed_s               every command time: interpreter start-up
                                 and imports, outside any span
"""
from __future__ import annotations

import json
import sys
import time

HOOK = "hook"

# span name -> functions ("module:attr" or "module:Class.method")
SPANS = {
    "dsl.parse": ["dsl:parse"],
    "dsl.elaborate": ["dsl:elaborate"],
    "states.enumerate": ["states:StateSpace.__init__"],
    "states.eval_pred": ["states:eval_pred"],
    "events.apply": ["events:Event.apply"],
    "events.si": ["events:EventSystem.strongest_invariant"],
    "mp.leadsto": ["mp:leadsto_mp", "mp:leadsto_mp_si"],
    "wf.leadsto": ["wf:leadsto_wf", "wf:leadsto_wf_si"],
    "wf.fair_loop": ["wf:fair_loop"],
    "variants.rule": ["mp:rule_mp_variant", "wf:rule_wf_to_mp"],
    "oracle.search": ["oracle:oracle_mp", "oracle:oracle_wf", "oracle:oracle_reachable"],
    "oracle.validate": ["oracle:validate_counterexample"],
    "certificates.derive": ["certificates:derive_certificate_mp", "certificates:derive_certificate_wf"],
    "certificates.to_json": ["certificates:cert_to_json"],
    "certificates.from_json": ["certificates:cert_from_json"],
    "certificates.check": ["certificates:check_certificate"],
    "verdicts.to_json": ["verdicts:Verdict.to_json"],
    "cli": ["cli:cmd_check", "cli:cmd_explain", "cli:cmd_check_cert", "cli:cmd_si"],
}

# functions that only feed counters
COUNTED = ["transformers:lfp", "transformers:gfp"]


def _cert_nodes(cert) -> int:
    stack, n = [cert], 0
    while stack:
        node = stack.pop()
        n += 1
        if hasattr(node, "left"):
            stack += [node.left, node.right]
        elif hasattr(node, "parts"):
            stack += node.parts
    return n


class Tracer:
    def __init__(self):
        self.names = [HOOK]
        self.spans = []
        self.stack = []
        self.counters = {}
        self.models = []

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name, fn, hook=None):
        """``fn`` recorded as a span ``name`` (or no span when ``name`` is None);
        ``hook(args, result)`` runs afterwards inside a ``hook`` span."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        name_id = self._name_id(name) if name is not None else None

        def traced(*args, **kwargs):
            if name_id is None:
                result = fn(*args, **kwargs)
            else:
                # reserve the slot first so children can name it as parent
                idx = len(spans)
                spans.append(None)
                stack.append(idx)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    spans[idx] = (name_id, start, end, stack[-1] if stack else -1)
            if hook is not None:
                start = clock()
                hook(args, result)
                spans.append((0, start, clock(), stack[-1] if stack else -1))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__doc__ = fn.__doc__
        return traced

    def _hooks(self):
        def fixpoint(kind):
            def hook(args, result):
                self.count(f"transformers.{kind}_calls")
                self.count("transformers.iterations", len(result[1].steps) - 1)
            return hook

        def fair_loop(args, result):
            r = args[3]
            if result.mask & ~r.mask:
                self.count("wf.fair_loop_useful")

        def search(args, result):
            if isinstance(result, tuple) and result[1] is not None:
                self.count("oracle.cx_steps", len(result[1].prefix) + len(result[1].cycle))

        def derive(args, result):
            self.count("certificates.nodes", _cert_nodes(result))

        def elaborate(args, result):
            system = result.system
            self.models.append({
                "states": system.space.size,
                "transitions": sum(
                    image.bit_count() for e in system.events for image in e.rel.values()
                ),
            })

        return {
            "transformers:lfp": fixpoint("lfp"),
            "transformers:gfp": fixpoint("gfp"),
            "wf:fair_loop": fair_loop,
            "oracle:oracle_mp": search,
            "oracle:oracle_wf": search,
            "certificates:derive_certificate_mp": derive,
            "certificates:derive_certificate_wf": derive,
            "dsl:elaborate": elaborate,
        }

    def install(self) -> None:
        import fixleads  # noqa: F401  (imports every submodule)
        import fixleads.cli  # noqa: F401

        modules = [m for k, m in sys.modules.items() if k == "fixleads" or k.startswith("fixleads.")]
        hooks = self._hooks()
        targets = [(name, t) for name, ts in SPANS.items() for t in ts]
        targets += [(None, t) for t in COUNTED]
        for name, target in targets:
            mod_name, attr = target.split(":")
            owner = sys.modules[f"fixleads.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth), hooks.get(target)))
                continue
            original = getattr(owner, attr)
            traced = self.wrap(name, original, hooks.get(target))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
            if target == "certificates:cert_to_json":
                # certificate classes carry cert_to_json as their to_json method
                for cls_name in ("Basic", "Trans", "Disj"):
                    setattr(getattr(owner, cls_name), "to_json", traced)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "names": self.names,
                "spans": self.spans,
                "counters": self.counters,
                "models": self.models,
            }, fh)
