import pytest
from hypothesis import given

from conftest import Z, el, spec_with_elements, zmod, zset
from zerosum import groups
from zerosum.errors import NotSumFullError
from zerosum.gen import GenConfig, SplitMix64, random_set
from zerosum.groups import GroupSpec
from zerosum.sumfull import InputSet, check_sum_full, least_pairs, prune_to_sumfull, verify_table


def test_symmetric_set_has_table():
    a = zset(-3, -2, -1, 1, 2, 3)
    t = check_sum_full(a)
    assert verify_table(a, t)
    # canonical order is (-3,-2,-1,1,2,3); -3 = -2 + -1 is the least pair
    assert t.reps[0] == (1, 2)


def test_positive_triple_not_sum_full():
    with pytest.raises(NotSumFullError) as exc:
        check_sum_full(zset(1, 2, 3))
    assert exc.value.witness_index == 0  # element 1 has no representation from {2, 3}


def test_singleton_zero_not_sum_full():
    with pytest.raises(NotSumFullError) as exc:
        check_sum_full(zset(0))
    assert exc.value.witness_index == 0  # 0 = 0 + 0 would use the element itself


def test_empty_input_rejected():
    with pytest.raises(ValueError):
        InputSet.from_elements(Z, [])


def test_deduplication_keeps_verdict():
    a = InputSet.from_elements(Z, [el(Z, v) for v in (3, -3, -2, -1, 1, 2, 3, 3, -1)])
    b = zset(-3, -2, -1, 1, 2, 3)
    assert a == b
    assert check_sum_full(a) == check_sum_full(b)


def test_determinism():
    a = zset(-3, -2, -1, 1, 2, 3)
    assert check_sum_full(a) == check_sum_full(a)


def test_table_pairs_never_use_own_index():
    Z7 = zmod(7)
    a = InputSet.from_elements(Z7, [el(Z7, v) for v in range(1, 7)])
    t = check_sum_full(a)
    for k, (i, j) in enumerate(t.reps):
        assert i != k and j != k and i <= j
        assert groups.add(a.elements[i], a.elements[j], Z7) == a.elements[k]


@given(spec_with_elements())
def test_check_sum_full_verdicts_verify(case):
    spec, els = case
    a = InputSet.from_elements(spec, els)
    n = len(a.elements)

    def pairs(k):
        # every representation of a_k by two other elements, by brute force
        return [(i, j) for i in range(n) for j in range(i, n)
                if i != k and j != k
                and groups.add(a.elements[i], a.elements[j], spec) == a.elements[k]]

    try:
        table = check_sum_full(a)
    except NotSumFullError as exc:
        k = exc.witness_index
        assert pairs(k) == []
        assert all(pairs(e) for e in range(k))  # k is the least unrepresentable index
    else:
        assert verify_table(a, table)
        assert list(table.reps) == [min(pairs(k)) for k in range(n)]


def _full_scan(spec, elements):
    # the search without a window: for each target, every i ascending
    pos = {x: k for k, x in enumerate(elements)}
    found = []
    for k, target in enumerate(elements):
        hits = ((i, pos.get(groups.sub(target, x, spec))) for i, x in enumerate(elements))
        found.append(next(((i, j) for i, j in hits if j is not None and i != k != j), None))
    return found


def _full_scan_prune(spec, elements):
    # drop every element without a pair by the full scan, until none is dropped
    while True:
        keep = tuple(x for x, pair in zip(elements, _full_scan(spec, elements)) if pair is not None)
        if keep == elements:
            return keep
        elements = keep


M = groups.INT64_MAX


def _window_draws():
    # fixed-seed draws in Z, Z^2 and Z x Z_4 with negative coordinates, the
    # coordinates +-(2^63 - 1), the sets {-2c, -c, c, 2c} whose differences leave
    # 64 bits, and interval subsets
    Z2, ZZ4 = GroupSpec(2, ()), GroupSpec(1, (4,))
    rng = SplitMix64(2024)
    for spec, bound in ((Z, 40), (Z, 400), (Z, M), (Z2, 3), (Z2, 30), (ZZ4, 6), (ZZ4, 60)):
        for _ in range(25):
            cfg = GenConfig(seed=rng.next_u64(), group=spec, mode="random_set",
                            count=2 + rng.below(80), bound=bound)
            yield spec, random_set(cfg)
    rows = ([[v] for v in range(-6, 7)] + [[s * (M - v)] for s in (1, -1) for v in range(4)]
            + [[M - 6], [6 - M]])
    yield Z, groups.canonical_elements(el(Z, *r) for r in rows)
    yield Z2, groups.canonical_elements(el(Z2, r[0], v) for r in rows for v in (-M, 0, M))
    for c in (3 * 2**60, 2**61 + 1):
        yield Z, groups.canonical_elements(el(Z, v * c) for v in (-2, -1, 1, 2))
        yield Z2, groups.canonical_elements(el(Z2, v * c, -v) for v in (-2, -1, 1, 2))
        yield ZZ4, groups.canonical_elements(el(ZZ4, v * c, v) for v in (-2, -1, 1, 2))
    for lo, hi in ((-30, 30), (-40, -3), (3, 40), (-5, 60)):
        yield Z, groups.canonical_elements(el(Z, v) for v in range(lo, hi + 1) if v)
        yield ZZ4, groups.canonical_elements(el(ZZ4, v, v * v) for v in range(lo, hi + 1) if v % 7)
        cfg = GenConfig(seed=lo * hi, group=Z, mode="random_set", count=(hi - lo) // 2, bound=hi - lo)
        yield Z, groups.canonical_elements(el(Z, lo + abs(x.free[0])) for x in random_set(cfg))


def test_windowed_search_matches_the_full_scan():
    draws = list(_window_draws())
    assert len(draws) == 7 * 25 + 2 + 3 * 2 + 3 * 4
    full = pruned = 0
    for spec, els in draws:
        pairs = list(least_pairs(spec, els))
        assert pairs == _full_scan(spec, els), (spec, els)
        survivors = prune_to_sumfull(spec, els)
        assert survivors == _full_scan_prune(spec, els), (spec, els)
        full += None not in pairs
        pruned += 0 < len(survivors) < len(els)
    assert full >= 15 and pruned >= 15


@pytest.mark.parametrize("values", [(2, 1), (1, 1), (-3, 3, -1)])
def test_prune_refuses_unsorted_input(values):
    with pytest.raises(ValueError, match="strictly sorted"):
        prune_to_sumfull(Z, tuple(el(Z, v) for v in values))
