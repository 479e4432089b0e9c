"""End-to-end pipeline: representations -> witness -> zero-sum certificate.

Row k of the class matrix of the representation table is e_i + e_j - e_k for
reps[k] = (i, j), so it is orthogonal to the element vector; any 0-1 row-sum
vector v therefore marks a subset S = {k : v_k = 1} with element sum zero.
The matrix is a pure function of the table, so the witness is reduced from the
table in pair form, the audit trail keeps only the table and the witness, and
verification sums the witness rows straight from the table.  No matrix is built.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import groups
from .errors import InternalVerificationError
from .sumfull import InputSet, RepresentationTable, check_sum_full, verify_table
from .witness import ConstraintMatrix, WitnessSubset, find_witness_pairs, witness_holds
# the dense references, kept importable here because perfbench/layers.py hooks them by name
from .witness import find_witness, verify_witness  # noqa: F401


@dataclass(frozen=True)
class Trail:
    """Everything needed to re-derive the certificate without rerunning extraction."""

    table: RepresentationTable
    witness: WitnessSubset


@dataclass(frozen=True)
class ZeroSumCertificate:
    subset: tuple[int, ...]
    trail: Optional[Trail]  # None only for the zero-element short-circuit


def build_matrix(t: RepresentationTable) -> ConstraintMatrix:
    """The class matrix of the table: row k is e_i + e_j - e_k for reps[k] = (i, j)."""
    return ConstraintMatrix.from_pairs(t.reps)


def support(vector: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(k for k, vk in enumerate(vector) if vk == 1)


def extract(a: InputSet) -> ZeroSumCertificate:
    """Produce a verified nonempty zero-sum subset of a sum-full input set.

    If zero is among the elements, {0} is itself the minimal certificate and
    the pipeline is skipped.  Otherwise the witness vector's support indexes
    the subset; its sum vanishing is rechecked before returning.  An input
    that is not sum-full raises check_sum_full's NotSumFullError.
    """
    k = a.zero_index()
    if k is not None:
        return ZeroSumCertificate((k,), None)
    t = check_sum_full(a)
    w = find_witness_pairs(t.reps)
    s = support(w.vector)
    if groups.scalar_sum([a.elements[k] for k in s], a.spec) != groups.zero(a.spec):
        raise InternalVerificationError("witness support does not sum to zero")
    return ZeroSumCertificate(s, Trail(t, w))


def verify_certificate(c: ZeroSumCertificate, a: InputSet) -> bool:
    """Pure recomputation of the whole trail; shares no state with extract."""
    n = len(a.elements)
    if not c.subset or len(set(c.subset)) != len(c.subset):
        return False
    if any(k < 0 or k >= n for k in c.subset):
        return False
    z = groups.zero(a.spec)
    if groups.scalar_sum([a.elements[k] for k in c.subset], a.spec) != z:
        return False
    trail = c.trail
    if trail is None:
        return c.subset == (c.subset[0],) and a.elements[c.subset[0]] == z
    return (verify_table(a, trail.table)
            and witness_holds(trail.table.reps, trail.witness)
            and c.subset == support(trail.witness.vector))
