"""The schema-3 ``check --json`` report and the schema-3 certificate, kept as
test-side references.

Report schema 3 wrote every set of a report in place, as its list of state
objects, and each iterate trace as ``delta[k] = steps[k] ^ steps[k+1]``.
Later reports write each distinct set once, in the report's ``sets`` table,
and every set-valued field as an index into it.  :func:`schema3` rebuilds the
old form from a current report, decoding the table through ``check-cert``'s
own reader, so that the schema-3 bytes, pinned by their sha256, show that the
table loses nothing.

Certificate schema 3 wrote the same table as certificate schema 4, with each
state as its row of values in ``vars`` order instead of its index.
:func:`certificate_schema3` rebuilds it the same way, with rows written
here, from the schema-4 certificates kept in ``tests/data/golden-schema4``
(schema 5 writes the same table under a leaner tree)."""
import hashlib
import json

from fixleads.states import sets_from_json
from fixleads.states import StateSet


def schema3(report: dict, space) -> dict:
    """The schema-3 form of the current ``report``, a parsed document of the
    model whose space is ``space``; ``report`` is rebuilt in place, so every
    key keeps its position."""
    sets = sets_from_json(space, report)
    del report["vars"], report["sets"]
    report["schema"] = 3
    for entry in report["properties"]:
        verdict = entry["verdict"]
        if "trace" in verdict:
            verdict["fixpoint"] = sets[verdict["fixpoint"]].to_json()
            steps = [sets[i] for i in verdict["trace"]["steps"]]
            delta = [StateSet(space, lo.mask ^ hi.mask).to_json() for lo, hi in zip(steps, steps[1:])]
            verdict["trace"] = {"kind": verdict["trace"]["kind"], "delta": delta}
        details = verdict.get("details", {})
        for key in ("si", "not_invariant"):
            if key in details:
                details[key] = sets[details[key]].to_json()
        if "failing_level" in details:
            level = details["failing_level"]
            level["states"] = sets[level["states"]].to_json()
    return report


def schema3_digest(text: str, space) -> str:
    """The sha256 of the schema-3 text of the report ``text``, a line as
    ``check`` writes it or as a golden file stores it (``json.dumps`` of the
    parsed report, then a newline)."""
    out = json.dumps(schema3(json.loads(text), space)) + "\n"
    return hashlib.sha256(out.encode()).hexdigest()


def certificate_schema3(doc: dict, space) -> dict:
    """The schema-3 form of the schema-4 certificate ``doc``, a parsed document
    of the model whose space is ``space``: each entry of its ``sets`` table,
    decoded by ``check-cert``'s reader, written again as rows of values, a
    delta entry's states other than its base's under ``rows``."""
    sets = sets_from_json(space, doc)

    def rows(states):
        return [list(space.state_of(i).values()) for i in states]

    table = [{"base": entry["base"], "rows": rows(s - sets[entry["base"]])}
             if isinstance(entry, dict) else rows(s) for entry, s in zip(doc["sets"], sets)]
    doc.update(schema=3, sets=table)
    return doc


def certificate_schema3_digest(text: str, space) -> str:
    """The sha256 of the schema-3 text of the certificate ``text``, as
    ``explain`` writes it (``json.dumps`` of the document, then a newline)."""
    out = json.dumps(certificate_schema3(json.loads(text), space)) + "\n"
    return hashlib.sha256(out.encode()).hexdigest()
