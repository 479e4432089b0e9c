"""Independent output checker for the benchmark.

Everything here works on plain Python integers and parsed JSON.  It imports
nothing from `zerosum`, so a fault in the package cannot hide itself by also
being present in the check.  A group is given as (free_rank, torsion moduli);
an element is a flat coordinate list, free coordinates first, then residues.

Each check returns None when the output is right, or a short reason string.
"""
from __future__ import annotations

import itertools


def _add(x, y, torsion, free_rank):
    out = [a + b for a, b in zip(x[:free_rank], y[:free_rank])]
    out.extend((a + b) % m for a, b, m in zip(x[free_rank:], y[free_rank:], torsion))
    return tuple(out)


def _zero(free_rank, torsion):
    return (0,) * (free_rank + len(torsion))


def _sum(elements, free_rank, torsion):
    acc = _zero(free_rank, torsion)
    for x in elements:
        acc = _add(acc, x, torsion, free_rank)
    return acc


def canonical_elements(instance: dict) -> list[tuple[int, ...]]:
    """The instance's elements reduced, deduplicated and sorted, as the package's
    documented index base: lexicographic on free coordinates, then residues."""
    free_rank = instance["group"]["free_rank"]
    torsion = instance["group"]["torsion"]
    out = set()
    for row in instance["elements"]:
        free = tuple(row[:free_rank])
        residues = tuple(c % m for c, m in zip(row[free_rank:], torsion))
        out.add(free + residues)
    return sorted(out)


def check_certificate(instance: dict, cert: dict) -> str | None:
    """Re-derive an `extract` certificate from the instance it was made for."""
    group = instance["group"]
    free_rank, torsion = group["free_rank"], group["torsion"]
    if cert.get("group") != {"free_rank": free_rank, "torsion": list(torsion)}:
        return "group differs from the instance"
    els = canonical_elements(instance)
    if [tuple(x) for x in cert.get("elements", [])] != els:
        return "echoed elements differ from the canonical instance"
    n = len(els)
    subset = cert.get("subset")
    if not isinstance(subset, list) or not subset:
        return "subset is empty"
    if any(type(k) is not int or not 0 <= k < n for k in subset) or len(set(subset)) != len(subset):
        return "subset has a bad or repeated index"
    if _sum((els[k] for k in subset), free_rank, torsion) != _zero(free_rank, torsion):
        return "subset does not sum to zero"
    trail = cert.get("trail")
    if trail is None:
        if len(subset) == 1 and els[subset[0]] == _zero(free_rank, torsion):
            return None
        return "trail is missing but the subset is not {0}"
    reps = trail.get("reps")
    if not isinstance(reps, list) or len(reps) != n:
        return "reps table has the wrong length"
    for k, pair in enumerate(reps):
        if not isinstance(pair, list) or len(pair) != 2:
            return f"rep {k} is not a pair"
        i, j = pair
        if type(i) is not int or type(j) is not int or not (0 <= i < n and 0 <= j < n):
            return f"rep {k} has an index out of range"
        if i == k or j == k:
            return f"rep {k} uses the element itself"
        if _add(els[i], els[j], torsion, free_rank) != els[k]:
            return f"rep {k}: a_{i} + a_{j} != a_{k}"
    w = trail.get("witness") or {}
    rows, vector = w.get("rows"), w.get("vector")
    if not isinstance(rows, list) or not rows:
        return "witness has no rows"
    if any(type(r) is not int or not 0 <= r < n for r in rows) or len(set(rows)) != len(rows):
        return "witness has a bad or repeated row"
    # Row k of the class matrix is -1 at column k and +1 at columns i and j.
    acc = [0] * n
    for r in rows:
        i, j = reps[r]
        acc[r] -= 1
        acc[i] += 1
        acc[j] += 1
    if any(v not in (0, 1) for v in acc) or 1 not in acc:
        return "witness rows do not sum to a nonzero 0/1 vector"
    if vector != acc:
        return "stated witness vector differs from the rebuilt row sum"
    if [k for k, v in enumerate(acc) if v == 1] != subset:
        return "subset is not the support of the witness vector"
    matrix = trail.get("matrix")
    if matrix is not None:
        if not isinstance(matrix, list) or len(matrix) != n:
            return "embedded matrix has the wrong order"
        for k, (i, j) in enumerate(reps):
            row = [0] * n
            row[k] -= 1
            row[i] += 1
            row[j] += 1
            if matrix[k] != row:
                return f"embedded matrix row {k} differs from the reps"
    return None


# --- class sweep: the order-n class, enumerated here without the package

def _weak_compositions(total: int, slots: int):
    if slots == 0:
        if total == 0:
            yield ()
        return
    for head in range(total + 1):
        for rest in _weak_compositions(total - head, slots - 1):
            yield (head,) + rest


def class_rows(n: int, position: int) -> list[tuple[int, ...]]:
    """Rows with diagonal d in {-1, 0, 1} at `position`, off-diagonal entries >= 0,
    and row sum 1, in lexicographic order."""
    rows = []
    for d in (-1, 0, 1):
        for comp in _weak_compositions(1 - d, n - 1):
            rows.append(comp[:position] + (d,) + comp[position:])
    return sorted(rows)


def class_shard(n: int, first_rows) -> itertools.product:
    """Every class matrix of order n whose first row is one of the given options,
    in row-wise lexicographic order."""
    per_row = [class_rows(n, i) for i in range(n)]
    return itertools.product([per_row[0][k] for k in first_rows], *per_row[1:])


def check_witness(rows_of_matrix, rows, vector) -> str | None:
    """Recompute a witness's row sum directly from the matrix rows."""
    n = len(rows_of_matrix)
    if not rows or len(set(rows)) != len(rows) or any(not 0 <= r < n for r in rows):
        return "witness has no rows, or a bad or repeated row"
    acc = [sum(rows_of_matrix[r][c] for r in rows) for c in range(n)]
    if any(v not in (0, 1) for v in acc) or 1 not in acc:
        return "rows do not sum to a nonzero 0/1 vector"
    if list(vector) != acc:
        return "stated vector differs from the row sum"
    return None


# --- char3 toolkit

def check_zero_sum_list(elements, distinct, members, free_rank, torsion) -> str | None:
    if not elements:
        return "zero-sum list is empty"
    if any(x not in members for x in elements):
        return "zero-sum list uses an element outside the input"
    if _sum(elements, free_rank, torsion) != _zero(free_rank, torsion):
        return "chain window does not sum to zero"
    if distinct != (len(set(elements)) == len(elements)):
        return "distinct flag is wrong"
    return None


def check_quadruple(quad, members, free_rank, torsion) -> str | None:
    a1, a2, a3, a4 = quad
    if any(x not in members for x in quad):
        return "quadruple uses an element outside the set"
    if _add(a1, a2, torsion, free_rank) != _add(a3, a4, torsion, free_rank):
        return "a1 + a2 != a3 + a4"
    if sorted((a1, a2)) == sorted((a3, a4)):
        return "quadruple repeats the same pair"
    return None


def has_pair_collision(elements, free_rank, torsion) -> bool:
    """Whether two different unordered pairs {i <= j} share a sum."""
    seen = set()
    for i in range(len(elements)):
        for j in range(i, len(elements)):
            s = _add(elements[i], elements[j], torsion, free_rank)
            if s in seen:
                return True
            seen.add(s)
    return False


def check_sidon(elements, verdict, free_rank, torsion) -> str | None:
    """verdict is True, or the quadruple the program returned."""
    collision = has_pair_collision(elements, free_rank, torsion)
    if verdict is True:
        return "set has a pair-sum collision but was called Sidon" if collision else None
    if not collision:
        return "set is Sidon but a quadruple was returned"
    return check_quadruple(verdict, set(elements), free_rank, torsion)


def rank_mod_p(vectors, p: int) -> int:
    pivots: dict[int, list[int]] = {}
    for vec in vectors:
        row = [x % p for x in vec]
        for col in sorted(pivots):
            if row[col]:
                coeff = row[col]
                row = [(a - coeff * b) % p for a, b in zip(row, pivots[col])]
        lead = next((c for c, x in enumerate(row) if x), None)
        if lead is not None:
            inv = pow(row[lead], p - 2, p)
            pivots[lead] = [(x * inv) % p for x in row]
    return len(pivots)


def check_closure_f3(gens, realized, dim: int) -> str | None:
    """The subgroup generated by gens in F_3^dim: closed, containing 0 and gens,
    and of order 3^rank."""
    torsion = [3] * dim
    members = set(realized)
    if len(members) != len(realized):
        return "closure repeats an element"
    if _zero(0, torsion) not in members or any(g not in members for g in gens):
        return "closure lacks zero or a generator"
    for x in members:
        for g in gens:
            if _add(x, g, torsion, 0) not in members:
                return "closure is not closed under adding a generator"
    if len(members) != 3 ** rank_mod_p(gens, 3):
        return "closure is larger than the generated subgroup"
    return None


AUDIT_STEPS = ("olson_count", "sidon_triple", "complement_of_triple_generating",
               "complement_of_basis_generating")


def check_audit_f3(elements, report: dict, dim: int) -> str | None:
    """Facts of an audit report that can be recomputed from the input alone."""
    n = len(elements)
    if report["size"] != n or report["ambient_dimension"] != dim:
        return "size or ambient dimension is wrong"
    rank = rank_mod_p(elements, 3)
    if report["span_rank"] != rank or report["restricted_to_span"] != (rank < dim):
        return "span rank is wrong"
    if report["failing_step"] not in AUDIT_STEPS:
        return "unknown failing step"
    if report["failing_step"] == "olson_count" and n <= 2 * rank:
        return "olson_count failed although n <= 2m"
    indices = report["zero_sum_indices"]
    if indices is not None:
        if not indices or len(set(indices)) != len(indices) or any(not 0 <= k < n for k in indices):
            return "surfaced indices are empty, repeated or out of range"
        if _sum((elements[k] for k in indices), 0, [3] * dim) != _zero(0, [3] * dim):
            return "surfaced indices do not sum to zero"
    return None
