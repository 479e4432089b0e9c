"""Sidon checks, chain/quadruple extraction, subgroup closure, Olson bounds,
prime-field linear algebra, and a step-by-step auditor for elementary abelian
3-groups.

The chain construction walks a_k = a_{k+1} + b_k with a_{k+1} kept outside a
given subgroup H until the a-sequence repeats; telescoping the window between
the repeat endpoints gives b_i + ... + b_{j-1} = 0.  Pairwise-distinct b's are
a zero-sum certificate; a repeated b yields a nontrivial additive quadruple.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Sequence, Union

from . import groups
from .errors import BudgetExceeded, InternalVerificationError
from .extractor import extract
from .groups import GroupElement, GroupSpec
from .sumfull import InputSet, check_sum_full

SUBGROUP_MAX_ORDER = 10**6
OLSON_MAX_P = 10**9  # trial division of p <= 10^9 takes at most 31,623 steps
OLSON_MAX_BITS = 4096  # each term p^a stays below 2^4096 (1,234 digits), so the reply prints


@dataclass(frozen=True)
class AdditiveQuadruple:
    """Four elements with a1 + a2 = a3 + a4 and {a1, a2} != {a3, a4} as unordered pairs."""

    a1: GroupElement
    a2: GroupElement
    a3: GroupElement
    a4: GroupElement

    def as_tuple(self) -> tuple[GroupElement, GroupElement, GroupElement, GroupElement]:
        return (self.a1, self.a2, self.a3, self.a4)


@dataclass(frozen=True)
class ZeroSumList:
    """A chain window b_i, ..., b_{j-1} whose group sum is zero."""

    elements: tuple[GroupElement, ...]
    distinct: bool


@dataclass(frozen=True)
class SubgroupHandle:
    realized: tuple[GroupElement, ...]


def verify_quadruple(q: AdditiveQuadruple, g: GroupSpec) -> bool:
    add = groups.arithmetic(g)[0]
    if add(q.a1, q.a2) != add(q.a3, q.a4):
        return False
    same_pair = (q.a1 == q.a3 and q.a2 == q.a4) or (q.a1 == q.a4 and q.a2 == q.a3)
    return not same_pair


def is_sidon(b: Sequence[GroupElement], g: GroupSpec) -> Union[bool, AdditiveQuadruple]:
    """True, or the first violating quadruple scanning index pairs (i, j), i <= j, in order.

    Pairs with i = j count: s + s = x + y is a violation like any other.  On a
    collision the quadruple pairs the first-seen indices with the current ones.
    """
    if len(set(b)) != len(b):
        raise ValueError("is_sidon requires a duplicate-free list")
    add = groups.arithmetic(g)[0]
    seen: dict[GroupElement, tuple[int, int]] = {}
    for i in range(len(b)):
        for j in range(i, len(b)):
            s = add(b[i], b[j])
            prior = seen.get(s)
            if prior is not None:
                k, l = prior
                return AdditiveQuadruple(b[k], b[l], b[i], b[j])
            seen[s] = (i, j)
    return True


def subgroup_closure(gens: Sequence[GroupElement], g: GroupSpec) -> SubgroupHandle:
    """Breadth-first closure of the generators under addition.

    The trivial subgroup (no nonzero generators) is realized for any ambient
    group; anything larger requires a finite ambient group of order at most
    SUBGROUP_MAX_ORDER (BudgetExceeded above it).
    """
    z = groups.zero(g)
    nonzero = [x for x in groups.canonical_elements(gens) if x != z]
    if not nonzero:
        return SubgroupHandle((z,))
    if not g.is_finite():
        raise ValueError("subgroup closure with nonzero generators needs a finite ambient group")
    order = g.order()
    assert order is not None
    if order > SUBGROUP_MAX_ORDER:
        raise BudgetExceeded(f"ambient group order {order} exceeds the closure cap "
                             f"{SUBGROUP_MAX_ORDER}")
    add = groups.arithmetic(g)[0]
    realized = {z}
    frontier = [z]
    while frontier:
        x = frontier.pop()
        for gen in nonzero:
            y = add(x, gen)
            if y not in realized:
                realized.add(y)
                frontier.append(y)
    return SubgroupHandle(groups.canonical_elements(realized))


def chain_extract(a: InputSet, h: SubgroupHandle) -> Union[ZeroSumList, AdditiveQuadruple]:
    """Run the chain a_k = a_{k+1} + b_k until the a-sequence repeats.

    Start from the least-index element outside H; at each step take the fixed
    representation of the current element and continue with its smaller-index
    summand outside H, recording the other summand as b.  The window between
    the repeat endpoints telescopes to a zero group sum.  Distinct b's are
    returned as a zero-sum list; a repeated b_sigma = b_tau yields the
    quadruple (a_sigma, a_tau+1, a_sigma+1, a_tau), nontrivial because the
    window's a-values are pairwise distinct and no b can be zero.
    """
    z = groups.zero(a.spec)
    if z in set(a.elements):
        return ZeroSumList((z,), True)
    table = check_sum_full(a)
    members = frozenset(h.realized)
    outside = [k for k, x in enumerate(a.elements) if x not in members]
    if not outside:
        raise ValueError("every element of the input lies in the subgroup")

    chain = [outside[0]]
    b_seq: list[int] = []
    seen_at = {outside[0]: 0}
    while True:
        k = chain[-1]
        i, j = table.reps[k]
        # At least one summand is outside H, else their sum a_k would lie in H.
        if a.elements[i] not in members:
            nxt, b = i, j
        elif a.elements[j] not in members:
            nxt, b = j, i
        else:
            raise InternalVerificationError("both summands of an outside element lie in the subgroup")
        b_seq.append(b)
        t = len(chain)
        chain.append(nxt)
        if nxt in seen_at:
            start = seen_at[nxt]
            window = b_seq[start:t]
            break
        seen_at[nxt] = t

    window_elements = tuple(a.elements[k] for k in window)
    if groups.scalar_sum(window_elements, a.spec) != z:
        raise InternalVerificationError("chain window does not telescope to zero")
    if len(set(window)) == len(window):
        return ZeroSumList(window_elements, True)
    first_seen: dict[int, int] = {}
    sigma = tau = -1
    for t_pos, b in enumerate(window):
        if b in first_seen:
            sigma, tau = first_seen[b], t_pos
            break
        first_seen[b] = t_pos

    def a_of(t_pos: int) -> GroupElement:
        return a.elements[chain[start + t_pos]]

    quad = AdditiveQuadruple(a_of(sigma), a_of(tau + 1), a_of(sigma + 1), a_of(tau))
    if not verify_quadruple(quad, a.spec):
        raise InternalVerificationError("degenerate quadruple from a repeated chain summand")
    return quad


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def olson_bound(p: int, invariants: Sequence[int]) -> int:
    """Largest length of a zero-sum-free sequence in the p-group with the given invariants:
    sum of p^alpha_i minus the number of invariants; (p-1)*m in the elementary case.

    BudgetExceeded is raised for p above OLSON_MAX_P before the primality
    test, and for an exponent a with a * bit_length(p) above OLSON_MAX_BITS
    before any power is computed.
    """
    if p > OLSON_MAX_P:
        raise BudgetExceeded(f"p exceeds the cap {OLSON_MAX_P}")
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    exps = [int(x) for x in invariants]
    if not exps or any(x < 1 for x in exps):
        raise ValueError("invariants must be a nonempty list of exponents >= 1")
    if max(exps) * p.bit_length() > OLSON_MAX_BITS:
        raise BudgetExceeded(f"a term p^a of the bound may exceed the cap of {OLSON_MAX_BITS} bits")
    return sum(p**x for x in exps) - len(exps)


def fp_basis(vectors: Sequence[Sequence[int]], p: int, dim: int) -> tuple[int, tuple[int, ...]]:
    """Gaussian elimination over the p-element field.

    Returns the rank and the lexicographically first index subset forming a
    basis of the span (greedy acceptance of rank-increasing vectors).
    """
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    pivots: dict[int, list[int]] = {}
    basis: list[int] = []
    for idx, vec in enumerate(vectors):
        row = [int(x) % p for x in vec]
        if len(row) != dim:
            raise ValueError(f"vector {idx} has length {len(row)}, expected {dim}")
        for col in sorted(pivots):
            coeff = row[col]
            if coeff:
                piv = pivots[col]
                row = [(r - coeff * v) % p for r, v in zip(row, piv)]
        lead = next((c for c, x in enumerate(row) if x), None)
        if lead is None:
            continue
        inv = pow(row[lead], p - 2, p)
        pivots[lead] = [(x * inv) % p for x in row]
        basis.append(idx)
    return len(basis), tuple(basis)


@dataclass(frozen=True)
class AuditStep:
    name: str
    passed: bool
    detail: dict = field(default_factory=dict)


@dataclass(frozen=True)
class AuditReport:
    """Trace of the dedicated elementary-3-group argument on a concrete input.

    Because a sum-full set always has a zero-sum subset, one step must fail in
    the would-be counterexample narrative; failing_step names the first one and
    zero_sum_indices carries surfaced zero-sum structure when available.
    """

    size: int
    ambient_dimension: int
    span_rank: int
    restricted_to_span: bool
    steps: tuple[AuditStep, ...]
    failing_step: str
    zero_sum_indices: tuple[int, ...] | None


def _rank_of(elements: Sequence[GroupElement], dim: int) -> int:
    return fp_basis([x.torsion for x in elements], 3, dim)[0]


def _surface_by_chain(a: InputSet, complement: list[GroupElement]) -> tuple[int, ...]:
    h = subgroup_closure(complement, a.spec)
    outcome = chain_extract(a, h)
    if not isinstance(outcome, ZeroSumList) or not outcome.distinct:
        raise InternalVerificationError("chain against a Sidon complement returned a quadruple")
    pos = a.positions()
    return tuple(sorted(pos[x] for x in outcome.elements))


def audit_char3(a: InputSet) -> AuditReport:
    """Execute the elementary-3-group argument step by step and report the first failure.

    Steps: (1) the Olson size bound n <= 2m; (2) fixing a = b + c for the least
    element; (3) the Sidon check of {a, b, c}; (4) generation by the complement
    of the triple plus basis extraction; (5) generation by the complement of the
    basis, which the size count and the dependence a = b + c make impossible.
    Diagnostic only; the surfaced indices are checked but no certificate object
    is produced.
    """
    g = a.spec
    if not g.is_finite() or any(m != 3 for m in g.torsion):
        raise ValueError("audit requires an elementary abelian 3-group ambient")
    table = check_sum_full(a)

    n = len(a.elements)
    ambient_dim = len(g.torsion)
    span_rank = _rank_of(a.elements, ambient_dim)
    restricted = span_rank < ambient_dim
    m = span_rank
    steps: list[AuditStep] = []

    ok = n <= 2 * m
    steps.append(AuditStep("olson_count", ok, {"size": n, "bound": 2 * m, "rank": m}))
    if not ok:
        return AuditReport(n, ambient_dim, span_rank, restricted, tuple(steps),
                           "olson_count", extract(a).subset)

    a_idx = 0
    b_idx, c_idx = table.reps[a_idx]
    steps.append(AuditStep("fix_representation", True,
                           {"element": a_idx, "summands": [b_idx, c_idx]}))

    triple_idx = sorted({a_idx, b_idx, c_idx})
    triple = [a.elements[k] for k in triple_idx]
    verdict = is_sidon(triple, g)
    if verdict is not True:
        z = groups.zero(g)
        k = bisect_left(a.elements, z)
        surfaced = (k,) if k < len(a.elements) and a.elements[k] == z else None
        steps.append(AuditStep("sidon_triple", False,
                               {"triple": triple_idx,
                                "quadruple": [groups.coords(x) for x in verdict.as_tuple()]}))
        return AuditReport(n, ambient_dim, span_rank, restricted, tuple(steps),
                           "sidon_triple", surfaced)
    steps.append(AuditStep("sidon_triple", True, {"triple": triple_idx}))

    comp_indices = [k for k in range(n) if k not in triple_idx]
    complement = [a.elements[k] for k in comp_indices]
    rank, local_basis = fp_basis([x.torsion for x in complement], 3, ambient_dim)
    if rank != m:
        steps.append(AuditStep("complement_of_triple_generating", False,
                               {"removed": triple_idx}))
        surfaced = _surface_by_chain(a, complement)
        return AuditReport(n, ambient_dim, span_rank, restricted, tuple(steps),
                           "complement_of_triple_generating", surfaced)
    basis_idx = [comp_indices[t] for t in local_basis]
    steps.append(AuditStep("complement_of_triple_generating", True,
                           {"removed": triple_idx, "basis": basis_idx}))

    remainder_idx = [k for k in range(n) if k not in set(basis_idx)]
    remainder = [a.elements[k] for k in remainder_idx]
    ok = _rank_of(remainder, ambient_dim) == m
    steps.append(AuditStep("complement_of_basis_generating", ok,
                           {"removed": basis_idx, "size": len(remainder_idx),
                            "dependent_triple": triple_idx}))
    if ok:
        # n <= 2m makes the remainder at most m dependent vectors; they cannot span.
        raise InternalVerificationError("complement of a basis generated despite the size count")
    surfaced = _surface_by_chain(a, remainder)
    return AuditReport(n, ambient_dim, span_rank, restricted, tuple(steps),
                       "complement_of_basis_generating", surfaced)
