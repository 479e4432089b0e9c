import pytest
from hypothesis import given

from conftest import Z, el, spec_with_elements, zmod, zset
from zerosum import groups
from zerosum.errors import NotSumFullError
from zerosum.sumfull import InputSet, check_sum_full, verify_table


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
