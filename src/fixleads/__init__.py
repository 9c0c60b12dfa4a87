"""fixleads: fixpoint verification of ensures and leads-to liveness
properties for finite guarded event systems, under minimal-progress and
weak-fairness scheduling, cross-validated by an independent trace oracle."""

__version__ = "0.1.0"

from .certificates import (
    Basic,
    CertificateError,
    Disj,
    Trans,
    cert_from_json,
    cert_to_json,
    check_certificate,
    derive_certificate_mp,
    derive_certificate_wf,
)
from .dsl import DslError, Elaborated, Property, SpecAst, elaborate, load_file, parse, print_spec
from .events import Event, EventSystem, FixpointError, IterateTrace, ModelError, gfp, lfp
from .exprs import EvalError, eval_bool, eval_expr, to_text
from .mp import ensures_mp, leadsto_mp, leadsto_mp_si, mp_step, rule_mp_variant
from .oracle import (
    Counterexample,
    oracle_mp,
    oracle_reachable,
    oracle_wf,
    validate_counterexample,
)
from .states import (
    DEFAULT_STATE_CAP,
    SpaceError,
    SpaceMismatch,
    StateSet,
    StateSpace,
    VarDecl,
    eval_pred,
    json_line,
)
from .transformers import (
    Choice,
    Dovetail,
    Guard,
    Precond,
    Rel,
    Seq,
    Skip,
    apply,
    check_variant_theorem,
    fair_loop_liberal,
    grd,
    liberal,
    pre,
    system_choice,
    wf_step,
)
from .variants import VariantError, VariantFn
from .verdicts import SelfCheckDefect, Verdict
from .wf import (
    ensures_wf,
    fair_loop,
    fair_loop_termination,
    leadsto_wf,
    leadsto_wf_si,
    rule_wf_to_mp,
)

__all__ = [name for name in dir() if not name.startswith("_")]
