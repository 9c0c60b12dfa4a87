"""fixleads: fixpoint verification of ensures and leads-to liveness
properties for finite guarded event systems, under minimal-progress and
weak-fairness scheduling, cross-validated by an independent trace oracle.

``import fixleads`` runs no submodule.  It puts every submodule but ``cli``
in ``sys.modules`` and on the package as a lazy module, compiled on its
first attribute access, and resolves each public name below through its
defining module on first use.  So a command compiles only the modules it
calls."""

import importlib.util as _util
import sys as _sys

__version__ = "0.1.0"

# ``cli`` is left to the import system: ``python -m fixleads.cli`` runs it as
# ``__main__``, and runpy would load a registered copy first and warn
_SUBMODULES = ("certificates", "dsl", "events", "exprs", "mp", "oracle", "printer", "records",
               "states", "transformers", "variants", "verdicts", "wf")

for _name in _SUBMODULES:
    _spec = _util.find_spec(f"{__name__}.{_name}")
    _spec.loader = _util.LazyLoader(_spec.loader)
    _module = _util.module_from_spec(_spec)
    _sys.modules[_spec.name] = globals()[_name] = _module
    _spec.loader.exec_module(_module)
del _name, _spec, _module

# each public name's defining module
_EXPORTS = {
    "certificates": "Basic CertificateError Disj Trans cert_from_json cert_to_json check_certificate"
                    " derive_certificate_mp derive_certificate_wf",
    "dsl": "DslError Elaborated Property SpecAst elaborate load_file parse",
    "events": "Event EventSystem FixpointError IterateTrace ModelError gfp lfp",
    "exprs": "EvalError eval_bool eval_expr to_text",
    "mp": "ensures_mp leadsto_mp leadsto_mp_si mp_step rule_mp_variant",
    "oracle": "Counterexample oracle_mp oracle_reachable oracle_wf validate_counterexample",
    "printer": "print_spec",
    "states": "DEFAULT_STATE_CAP SpaceError SpaceMismatch StateSet StateSpace VarDecl eval_pred",
    "transformers": "Choice Dovetail Guard Precond Rel Seq Skip apply check_variant_theorem"
                    " fair_loop_liberal fair_loop_termination grd liberal pre system_choice wf_step",
    "variants": "VariantError VariantFn",
    "verdicts": "SelfCheckDefect Verdict",
    "wf": "ensures_wf fair_loop leadsto_wf leadsto_wf_si rule_wf_to_mp",
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names.split()}

# the printer is reference code that only tests call, so not a public module
__all__ = sorted([m for m in _SUBMODULES if m != "printer"] + list(_OWNER))


def __getattr__(name):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_OWNER[name]], name)


def __dir__():
    return sorted({*globals(), *_OWNER})
