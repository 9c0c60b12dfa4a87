"""Command line surface: check, explain, check-cert and si subcommands.

Exit codes: 0 all requested checks pass, 1 some property fails or a
certificate is rejected, 2 usage errors or bad input files, 3 internal
defect (the independent trace oracle disagrees with the fixpoint verdict, a
rule's self-check fires, or any other unexpected exception).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import __version__, certificates, mp, oracle, wf
from .dsl import DslError, Elaborated, Property, load_file
from .records import Frozen, setfield
from .states import DEFAULT_STATE_CAP, SpaceError, StateSet, set_table
from .verdicts import SelfCheckDefect, Verdict

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_DEFECT = 3

REPORT_SCHEMA = 5  # check --json; every set an index into one table of state indices
SI_SCHEMA = 1  # si --json, versioned apart from the check report


class UsageError(Exception):
    pass


def _state_cap(args) -> int:
    if getattr(args, "max_states", None) is not None:
        return args.max_states
    env = os.environ.get("FIXLEADS_MAX_STATES")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise UsageError(f"FIXLEADS_MAX_STATES must be an integer, got {env!r}")
    return DEFAULT_STATE_CAP


def _load(path: str, args) -> Elaborated:
    if not os.path.exists(path):
        raise UsageError(f"no such file: {path}")
    try:
        return load_file(path, cap=_state_cap(args))
    except (DslError, SpaceError, UnicodeDecodeError) as exc:
        raise UsageError(f"{path}: {exc}")
    except OSError as exc:
        raise UsageError(f"{path}: {exc.strerror}")
    except RecursionError:
        raise UsageError(f"{path}: model nested too deeply") from None


class Claim(Frozen):
    """What one property claims, as check, the oracle and explain judge it:
    ``a`` and ``b`` lie inside ``si`` when the claim asks for si,
    ``assumption`` picks the engine or the rule of a ``using`` property, and
    ``semantics`` ('mp' | 'wf') is the leads-to the oracle and certificates
    judge."""

    __slots__ = ("a", "b", "assumption", "semantics", "si")

    def __init__(self, a: StateSet, b: StateSet, assumption: str, semantics: str,
                 si: StateSet | None = None):
        setfield(self, "a", a)
        setfield(self, "b", b)
        setfield(self, "assumption", assumption)
        setfield(self, "semantics", semantics)
        setfield(self, "si", si)


def resolve(
    elab: Elaborated, prop: Property, assume: str | None = None, force_si: bool = False
) -> Claim:
    """The claim of ``prop`` under ``--assume`` and ``--si``: a leads-to with
    si is the plain one on ``si ∩ a`` and ``si ∩ b``."""
    assumption = assume or prop.assumption
    a, b, si = prop.p, prop.q, None
    if prop.kind == "leadsto" and (prop.with_si or force_si):
        if not elab.has_init:
            raise UsageError(f"property {prop.name!r} asks for si: no init declared")
        si = elab.system.strongest_invariant()
        a, b = si & a, si & b
    # both variant rules conclude a leads-to under minimal progress
    semantics = "mp" if prop.using is not None else assumption
    return Claim(a, b, assumption, semantics, si)


def check_property(elab: Elaborated, prop: Property, claim: Claim) -> Verdict:
    """Decide ``claim``, resolved from ``prop``, with the matching engine or rule."""
    sys_ = elab.system
    if prop.kind == "ensures":
        if claim.assumption == "mp":
            return mp.ensures_mp(sys_, claim.a, claim.b)
        if prop.via is None:
            raise UsageError(
                f"property {prop.name!r}: ensures under wf needs 'via <event>'"
            )
        return wf.ensures_wf(sys_, sys_.event(prop.via), claim.a, claim.b)
    if prop.using is not None:
        rule = mp.rule_mp_variant if claim.assumption == "mp" else wf.rule_wf_to_mp
        verdict = rule(sys_, claim.a, claim.b, elab.variants[prop.using])
    else:
        engine = mp.leadsto_mp if claim.assumption == "mp" else wf.leadsto_wf
        verdict = engine(sys_, claim.a, claim.b)
    if claim.si is not None:
        verdict.details["si"] = claim.si
    return verdict


def _format_set(s: StateSet) -> str:
    if len(s) <= 16:
        inner = ", ".join(
            " ".join(f"{k}={v}" for k, v in st.items()) for st in s.to_json()
        )
        return "{" + inner + "}"
    return f"<{len(s)} states>"


def _json(obj) -> str:
    """``obj`` as one line of JSON, each :class:`StateSet` as its
    ``to_json()`` list: the text of every document and of every JSON
    fragment that text output prints."""
    return json.dumps(obj, default=StateSet.to_json)


def cmd_check(args) -> int:
    elab = _load(args.file, args)
    report = {
        "schema": REPORT_SCHEMA,
        "tool_version": __version__,
        "system": elab.system.name,
        "properties": [],
    }
    if not elab.properties:
        raise UsageError(f"{args.file}: no properties declared")
    all_hold = True
    defect = False
    searched = {}  # (semantics, a, b) -> the oracle's (holds, counterexample)
    graphs = {}  # (a, b) -> the search graph its mp and wf oracles share
    shown = []  # each verdict's holds and details, which text mode prints without a report entry
    for prop in elab.properties:
        started = time.perf_counter()
        claim = resolve(elab, prop, args.assume, args.si)
        verdict = check_property(elab, prop, claim)
        shown.append((verdict.holds, verdict.details))
        entry = {"name": prop.name, "kind": prop.kind, "assumption": claim.assumption}
        if args.json:
            entry["verdict"] = verdict.to_json()
        if prop.kind == "leadsto" and (args.oracle or not verdict.holds):
            question = (claim.semantics, claim.a.mask, claim.b.mask)
            if question not in searched:
                search = oracle.oracle_mp if claim.semantics == "mp" else oracle.oracle_wf
                if question[1:] not in graphs:
                    graphs[question[1:]] = oracle.SearchGraph(elab.system, claim.a, claim.b)
                searched[question] = search(elab.system, claim.a, claim.b, graph=graphs[question[1:]])
            o_holds, cx = searched[question]
            # a variant rule is only sufficient: when it fails, the oracle
            # is held against the direct mp fixpoint, not against the rule
            fix_holds = verdict.holds or (
                prop.using is not None and mp.leadsto_mp(elab.system, claim.a, claim.b).holds
            )
            if o_holds != fix_holds:
                defect = True
            if args.oracle:
                entry["oracle"] = {"holds": o_holds}
                entry["agreement"] = o_holds == fix_holds
            if cx is not None and not verdict.holds:
                # a valid run refutes this claim only if it starts in a under its semantics
                valid = oracle.validate_counterexample(elab.system, cx, claim.b)
                if not (valid and cx.start in claim.a and cx.assumption == claim.semantics):
                    defect = True
                entry["counterexample"] = cx.to_json(elab.system.space)
        entry["time_ms"] = round((time.perf_counter() - started) * 1000, 3)
        report["properties"].append(entry)
        all_hold = all_hold and verdict.holds
    graphs.clear()  # free the search graphs before the report is written
    if args.json:
        sets, entries = set_table(report.pop("properties"))
        report.update(vars=[v.name for v in elab.system.space.vars], sets=sets, properties=entries)
        print(_json(report))
    else:
        print(f"system {report['system']} ({len(report['properties'])} properties)")
        for entry, (holds, details) in zip(report["properties"], shown):
            mark = "PASS" if holds else "FAIL"
            line = f"  {mark} {entry['name']} ({entry['kind']} under {entry['assumption']})"
            if "agreement" in entry:
                if not entry["agreement"]:
                    note = "ORACLE DISAGREES"
                elif mark == "FAIL" and entry["oracle"]["holds"]:
                    # only a sufficient rule fails where the oracle holds
                    note = "rule fails; oracle and direct fixpoint hold"
                else:
                    note = "oracle agrees"
                line += f" [{note}]"
            print(line)
            for antecedent in ("failing_level", "not_invariant"):
                if antecedent in details:
                    detail = _json(details[antecedent])
                    print(f"       rule antecedent fails, {antecedent}: {detail}")
            if "counterexample" in entry:
                print(f"       counterexample: {_json(entry['counterexample'])}")
    if defect:
        print("internal defect: oracle and fixpoint verdicts disagree", file=sys.stderr)
        return EXIT_DEFECT
    return EXIT_OK if all_hold else EXIT_FAIL


def _find_property(elab: Elaborated, name: str) -> Property:
    for prop in elab.properties:
        if prop.name == name:
            return prop
    raise UsageError(f"no property named {name!r}")


def cmd_explain(args) -> int:
    elab = _load(args.file, args)
    prop = _find_property(elab, args.property)
    sys_ = elab.system
    claim = resolve(elab, prop)
    verdict = check_property(elab, prop, claim)
    if not verdict.holds:
        print(f"property {prop.name!r} fails; nothing to certify", file=sys.stderr)
        return EXIT_FAIL
    if prop.kind == "ensures":
        cert = certificates.Basic(claim.a, claim.b, claim.semantics, helpful=prop.via)
    elif claim.semantics == "mp":
        cert = certificates.derive_certificate_mp(sys_, claim.a, claim.b, verdict.trace)
    else:
        cert = certificates.derive_certificate_wf(sys_, claim.a, claim.b, verdict.trace, verdict.fair_deltas)
    payload = {
        "system": sys_.name,
        "property": prop.name,
        **certificates.cert_to_json(cert, (claim.a, claim.b)),  # its assumption first
    }
    out = args.out or (os.path.splitext(args.file)[0] + f".{prop.name}.cert.json")
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(_json(payload) + "\n")
    except OSError as exc:
        raise UsageError(f"{out}: {exc.strerror}")
    print(f"wrote certificate to {out}")
    return EXIT_OK


def cmd_check_cert(args) -> int:
    elab = _load(args.file, args)
    if not os.path.exists(args.cert):
        raise UsageError(f"no such file: {args.cert}")
    too_deep = f"{args.cert}: certificate nested too deeply"
    try:
        with open(args.cert, encoding="utf-8") as fh:
            payload = json.load(fh)
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise UsageError(f"{args.cert}: not a JSON file ({exc})")
    except OSError as exc:
        raise UsageError(f"{args.cert}: {exc.strerror}")
    except RecursionError:
        raise UsageError(too_deep) from None
    if not isinstance(payload, dict):
        raise UsageError(f"{args.cert}: malformed certificate file (not a JSON object)")
    system = payload.get("system")
    if system != elab.system.name:
        raise UsageError(f"{args.cert}: certificate for system {system!r}, not {elab.system.name!r}")
    name = payload.get("property")
    if not isinstance(name, str):
        raise UsageError(f"{args.cert}: malformed certificate file (property {name!r} is not a string)")
    prop = _find_property(elab, name)
    claim = resolve(elab, prop)
    try:
        cert, claimed = certificates.cert_from_json(elab.system.space, payload)
        assumption = payload.get("assumption")
        if not isinstance(assumption, str):
            raise certificates.CertificateError(f"assumption {assumption!r} is not a string")
        ok = _proves(prop, claim, cert, claimed, assumption) and certificates.check_certificate(
            elab.system, cert, claimed, assumption)
    except certificates.CertificateError as exc:
        raise UsageError(f"{args.cert}: malformed certificate file ({exc})")
    except RecursionError:
        raise UsageError(too_deep) from None
    print("certificate accepted" if ok else "certificate rejected")
    return EXIT_OK if ok else EXIT_FAIL


def _proves(prop: Property, claim: Claim, cert, claimed, assumption: str) -> bool:
    """Whether a certificate of ``claimed`` under ``assumption`` is about the
    claim of ``prop``, as ``explain`` resolves it.  An ensures property
    needs one leaf on exactly its sets, and under wf its ``via`` event: a
    chain proves only a leads-to, and a wf leaf with a larger ``p`` does not
    give the ensures of a smaller one."""
    a, b = claimed
    if assumption != claim.semantics or (a.mask, b.mask) != (claim.a.mask, claim.b.mask):
        return False
    if prop.kind != "ensures":
        return True
    return (isinstance(cert, certificates.Basic) and cert.p.mask == a.mask and cert.q.mask == b.mask
            and (assumption == "mp" or cert.helpful == prop.via))


def cmd_si(args) -> int:
    elab = _load(args.file, args)
    if not elab.has_init:
        raise UsageError(f"{args.file}: no init declared")
    si = elab.system.strongest_invariant()
    report = {"schema": SI_SCHEMA, "si": si}
    if args.verify:
        report["verified"] = oracle.oracle_reachable(elab.system, elab.system.init) == si
    if args.json:
        print(_json(report))
    else:
        print(_format_set(si))
        if report.get("verified"):
            print("verified against trace reachability")
    if report.get("verified") is False:
        print("internal defect: reachability disagrees with the fixpoint", file=sys.stderr)
        return EXIT_DEFECT
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fixleads",
        description="Verify ensures and leads-to properties of finite event systems.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--max-states", type=int, default=None,
                       help="state space cap (default from FIXLEADS_MAX_STATES)")

    p_check = sub.add_parser("check", help="check every property in a file")
    p_check.add_argument("file")
    p_check.add_argument("--assume", choices=["mp", "wf"], default=None,
                         help="override each property's declared assumption")
    p_check.add_argument("--si", action="store_true",
                         help="restrict checks to reachable states")
    p_check.add_argument("--oracle", action="store_true",
                         help="cross-check verdicts against the trace oracle")
    p_check.add_argument("--json", action="store_true")
    common(p_check)
    p_check.set_defaults(fn=cmd_check)

    p_explain = sub.add_parser("explain", help="emit a derivation certificate")
    p_explain.add_argument("file")
    p_explain.add_argument("property")
    p_explain.add_argument("--out", default=None)
    common(p_explain)
    p_explain.set_defaults(fn=cmd_explain)

    p_cert = sub.add_parser("check-cert", help="re-validate an emitted certificate")
    p_cert.add_argument("file")
    p_cert.add_argument("cert")
    common(p_cert)
    p_cert.set_defaults(fn=cmd_check_cert)

    p_si = sub.add_parser("si", help="print the strongest invariant")
    p_si.add_argument("file")
    p_si.add_argument("--verify", action="store_true",
                      help="compare against trace reachability")
    p_si.add_argument("--json", action="store_true")
    common(p_si)
    p_si.set_defaults(fn=cmd_si)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SelfCheckDefect as exc:
        print(f"internal defect: {exc}", file=sys.stderr)
        return EXIT_DEFECT
    except Exception as exc:
        try:
            import traceback  # only a defect needs it

            traceback.print_exc()
        except Exception:  # printing fails too when memory ran out; still a defect
            pass
        print(f"internal defect: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DEFECT


if __name__ == "__main__":
    sys.exit(main())
