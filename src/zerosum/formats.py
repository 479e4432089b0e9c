"""Shared JSON formats: one canonical encoding used by every CLI command.

Instances are {"format": 1, "group": {"free_rank": r, "torsion": [...]},
"elements": [[coords], ...]} with free coordinates first and torsion residues
after.  All indices in emitted JSON are 0-based positions into the canonical
(sorted, deduplicated) element list, which commands echo back.  Every integer
field is decoded strictly: floats and booleans are rejected, never coerced.
"""
from __future__ import annotations

import json
from typing import Any, Optional

from . import groups
from .char3 import AdditiveQuadruple, AuditReport, ZeroSumList
from .extractor import Trail, ZeroSumCertificate
from .groups import GroupElement, GroupSpec
from .sumfull import InputSet, RepresentationTable
from .witness import ConstraintMatrix, WitnessSubset, validate_membership

FORMAT_VERSION = 1
CERTIFICATE_FORMAT = 2  # reps + witness; the retired format 1 also embedded the class matrix


class InputFormatError(ValueError):
    """The supplied JSON does not match the shared format."""


def dumps_canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def require_field(obj: Any, key: str, kind) -> Any:
    if not isinstance(obj, dict) or key not in obj:
        raise InputFormatError(f"missing field {key!r}")
    value = obj[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise InputFormatError(f"field {key!r} has the wrong type")
    return value


def strict_ints(values: Any, what: str) -> tuple[int, ...]:
    """A JSON list of integers as a tuple; floats and booleans are refused, never coerced."""
    if not isinstance(values, list) or any(type(v) is not int for v in values):
        raise InputFormatError(f"{what} must be a list of integers")
    return tuple(values)


def group_to_json(g: GroupSpec) -> dict:
    return {"free_rank": g.free_rank, "torsion": list(g.torsion)}


def group_from_json(obj: Any) -> GroupSpec:
    free_rank = require_field(obj, "free_rank", int)
    torsion = strict_ints(require_field(obj, "torsion", list), "'torsion'")
    try:
        return GroupSpec(free_rank, torsion)
    except (TypeError, ValueError) as exc:
        raise InputFormatError(str(exc)) from exc


def elements_from_json(obj: Any, g: GroupSpec) -> list[GroupElement]:
    if not isinstance(obj, list):
        raise InputFormatError("'elements' must be a list of coordinate lists")
    out = []
    for row in obj:
        row = strict_ints(row, "each element")
        try:
            out.append(groups.element(g, row))
        except (ValueError, OverflowError) as exc:
            raise InputFormatError(str(exc)) from exc
    return out


def instance_from_json(obj: Any) -> InputSet:
    g = group_from_json(require_field(obj, "group", dict))
    els = elements_from_json(require_field(obj, "elements", list), g)
    try:
        return InputSet.from_elements(g, els)
    except ValueError as exc:
        raise InputFormatError(str(exc)) from exc


def instance_to_json(a: InputSet) -> dict:
    return {
        "format": FORMAT_VERSION,
        "group": group_to_json(a.spec),
        "elements": [groups.coords(x) for x in a.elements],
    }


def matrix_from_json(obj: Any) -> ConstraintMatrix:
    rows = [strict_ints(r, "each matrix row") for r in require_field(obj, "matrix", list)]
    if not rows or any(len(r) != len(rows) for r in rows):
        raise InputFormatError("'matrix' must be a non-empty square list of integer rows")
    return validate_membership(rows)


def witness_to_json(w: WitnessSubset) -> dict:
    return {"rows": list(w.rows), "vector": list(w.vector)}


def exact_fields(obj: Any, keys: set[str], what: str) -> dict:
    """obj as a JSON object with exactly the given fields."""
    if not isinstance(obj, dict) or set(obj) != keys:
        raise InputFormatError(f"{what} must have exactly the fields {sorted(keys)}")
    return obj


def witness_from_json(obj: Any) -> WitnessSubset:
    obj = exact_fields(obj, {"rows", "vector"}, "the witness")
    rows = strict_ints(require_field(obj, "rows", list), "witness 'rows'")
    if any(r >= s for r, s in zip(rows, rows[1:])):
        raise InputFormatError("witness rows must be strictly increasing")
    vector = strict_ints(require_field(obj, "vector", list), "witness 'vector'")
    return WitnessSubset(rows, vector)


def trail_to_json(t: Trail) -> dict:
    return {"reps": [list(pair) for pair in t.table.reps], "witness": witness_to_json(t.witness)}


def trail_from_json(obj: Any) -> Trail:
    obj = exact_fields(obj, {"reps", "witness"}, "the trail")
    reps = tuple(strict_ints(pair, "each rep") for pair in require_field(obj, "reps", list))
    n = len(reps)
    if not reps or any(len(pair) != 2 or not (0 <= pair[0] < n and 0 <= pair[1] < n)
                       for pair in reps):
        raise InputFormatError("reps must be a nonempty list of element index pairs")
    return Trail(RepresentationTable(reps), witness_from_json(obj["witness"]))


def certificate_to_json(a: InputSet, c: ZeroSumCertificate) -> dict:
    payload = instance_to_json(a)
    payload["format"] = CERTIFICATE_FORMAT
    payload["subset"] = list(c.subset)
    payload["sum_check"] = "zero"
    payload["trail"] = None if c.trail is None else trail_to_json(c.trail)
    return payload


def certificate_from_json(obj: Any) -> tuple[InputSet, Optional[ZeroSumCertificate]]:
    """The instance (malformed: raises) and the certificate (None on a malformed subset
    or trail, a sum_check other than "zero", or a format other than the integer 2)."""
    a = instance_from_json(obj)
    try:
        fmt = obj.get("format")
        if type(fmt) is not int or fmt != CERTIFICATE_FORMAT:
            raise InputFormatError(f"certificate format must be {CERTIFICATE_FORMAT}")
        if obj.get("sum_check") != "zero":
            raise InputFormatError("sum_check must be 'zero'")
        subset = strict_ints(require_field(obj, "subset", list), "'subset'")
        if any(k < 0 or k >= len(a.elements) for k in subset):
            raise InputFormatError("certificate subset index out of range")
        raw_trail = obj.get("trail")
        trail = None if raw_trail is None else trail_from_json(raw_trail)
    except InputFormatError:
        return a, None
    return a, ZeroSumCertificate(subset, trail)


def quadruple_to_json(q: AdditiveQuadruple) -> list[list[int]]:
    return [groups.coords(x) for x in q.as_tuple()]


def chain_outcome_to_json(a: InputSet, outcome) -> dict:
    if isinstance(outcome, ZeroSumList):
        pos = a.positions()
        return {
            "format": FORMAT_VERSION,
            "outcome": "zero_sum_list",
            "elements": [groups.coords(x) for x in outcome.elements],
            "indices": [pos[x] for x in outcome.elements],
            "distinct": outcome.distinct,
        }
    return {
        "format": FORMAT_VERSION,
        "outcome": "quadruple",
        "quadruple": quadruple_to_json(outcome),
    }


def report_to_json(r: AuditReport) -> dict:
    return {
        "format": FORMAT_VERSION,
        "size": r.size,
        "ambient_dimension": r.ambient_dimension,
        "span_rank": r.span_rank,
        "restricted_to_span": r.restricted_to_span,
        "steps": [{"step": s.name, "passed": s.passed, "detail": s.detail} for s in r.steps],
        "failing_step": r.failing_step,
        "zero_sum_indices": None if r.zero_sum_indices is None else list(r.zero_sum_indices),
    }
