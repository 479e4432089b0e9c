import pytest
from hypothesis import given

from conftest import Z, el, f3, group_specs, spec_with_elements, zmod
from zerosum import groups
from zerosum.errors import ShapeMismatch
from zerosum.gen import SplitMix64
from zerosum.groups import INT64_MAX, GroupElement, GroupSpec
from zerosum.sumfull import InputSet


def test_inverse_pair_in_z():
    assert groups.add(el(Z, 2), el(Z, -2), Z) == groups.zero(Z)


def test_modular_reduction():
    Z7 = zmod(7)
    assert groups.add(el(Z7, 5), el(Z7, 4), Z7) == el(Z7, 2)


def test_negate_examples():
    Z5 = zmod(5)
    assert groups.negate(el(Z5, 2), Z5) == el(Z5, 3)
    assert groups.negate(groups.zero(Z5), Z5) == groups.zero(Z5)
    Z2 = GroupSpec(2, ())
    assert groups.negate(el(Z2, 1, -4), Z2) == el(Z2, -1, 4)


def test_scalar_sum_examples():
    assert groups.scalar_sum([], Z) == groups.zero(Z)
    assert groups.scalar_sum([el(Z, 1), el(Z, 2), el(Z, -3)], Z) == groups.zero(Z)
    F = f3(2)
    e1 = el(F, 1, 0)
    assert groups.scalar_sum([e1, e1, e1], F) == groups.zero(F)


def test_identity_law_100_random():
    rng = SplitMix64(7)
    Z9 = zmod(9)
    for _ in range(100):
        x = el(Z9, rng.below(9))
        assert groups.add(x, groups.zero(Z9), Z9) == x


def test_shape_mismatch_rejected():
    with pytest.raises(ShapeMismatch):
        groups.add(el(Z, 1), groups.zero(zmod(5)), Z)
    with pytest.raises(ShapeMismatch):
        groups.element(Z, [1, 2])
    with pytest.raises(ShapeMismatch):
        InputSet.from_elements(Z, [el(Z, 1), groups.zero(zmod(5))])


def test_overflow_checked():
    # the 64-bit range is checked when an element is built; sums are exact
    assert groups.add(el(Z, INT64_MAX), el(Z, 1), Z).free == (2**63,)
    with pytest.raises(OverflowError):
        groups.element(Z, [INT64_MAX + 1])


def test_bad_spec_rejected():
    with pytest.raises(ValueError):
        GroupSpec(-1, ())
    with pytest.raises(ValueError):
        GroupSpec(0, (1,))


def test_trivial_group():
    t = GroupSpec(0, ())
    assert t.order() == 1
    assert list(groups.all_elements(t)) == [groups.zero(t)]


def test_group_axioms_bulk():
    # 10^4 sampled triples per ambient spec: associativity, identity, inverse.
    rng = SplitMix64(2024)
    for spec in (Z, zmod(12), f3(2), GroupSpec(1, (4, 6))):
        z = groups.zero(spec)
        for _ in range(10_000):
            coords = lambda: [rng.below(61) - 30 for _ in range(spec.free_rank)] + [
                rng.below(m) for m in spec.torsion]
            x, y, w = (groups.element(spec, coords()) for _ in range(3))
            assert groups.add(groups.add(x, y, spec), w, spec) == groups.add(x, groups.add(y, w, spec), spec)
            assert groups.add(x, y, spec) == groups.add(y, x, spec)
            assert groups.add(x, z, spec) == x
            assert groups.add(x, groups.negate(x, spec), spec) == z


def test_arithmetic_matches_checked_operations():
    # random coordinates, with free ones at the edge of the 64-bit range mixed in
    rng = SplitMix64(11)
    for spec in (Z, GroupSpec(2, ()), f3(4), GroupSpec(1, (4,)), GroupSpec(0, ())):
        add, negate = groups.arithmetic(spec)
        free_values = (INT64_MAX, -INT64_MAX, 0, 1, -1)

        def draw():
            free = [free_values[rng.below(5)] if rng.below(2) else rng.below(201) - 100
                    for _ in range(spec.free_rank)]
            return groups.element(spec, free + [rng.below(m) for m in spec.torsion])

        for _ in range(500):
            x, y = draw(), draw()
            exact = GroupElement(tuple(a + b for a, b in zip(x.free, y.free)),
                                 tuple((a + b) % m for a, b, m in zip(x.torsion, y.torsion, spec.torsion)))
            assert add(x, y) == groups.add(x, y, spec) == exact
            assert negate(x) == groups.negate(x, spec)
            assert add(x, negate(x)) == groups.zero(spec)


def test_arithmetic_is_built_once_per_spec():
    assert groups.arithmetic(GroupSpec(1, (4,))) is groups.arithmetic(GroupSpec(1, [4]))
    assert groups.arithmetic(GroupSpec(1, (4,))) != groups.arithmetic(GroupSpec(1, (5,)))
    with pytest.raises(ShapeMismatch):
        groups.add(el(f3(2), 1, 2), el(f3(3), 1, 2, 0), f3(2))
    with pytest.raises(ShapeMismatch):
        groups.negate(el(Z, 1), f3(1))


def test_canonical_order_is_free_then_torsion():
    spec = GroupSpec(1, (3,))
    els = [el(spec, *c) for c in ((1, 0), (0, 2), (-1, 2), (0, 1), (1, 0))]
    canon = groups.canonical_elements(els)
    assert [groups.coords(x) for x in canon] == [[-1, 2], [0, 1], [0, 2], [1, 0]]
    # an element is the tuple of its fields
    free, torsion = canon[0]
    assert canon[0] == ((-1,), (2,)) == (free, torsion)


@given(spec_with_elements())
def test_canonical_form_idempotent(case):
    spec, els = case
    canon = groups.canonical_elements(els)
    assert groups.canonical_elements(canon) == canon
    for x in canon:
        # re-reducing a stored element changes nothing
        assert groups.element(spec, groups.coords(x)) == x


@given(spec_with_elements(min_elements=2, max_elements=6))
def test_scalar_sum_permutation_invariant(case):
    spec, els = case
    assert groups.scalar_sum(els, spec) == groups.scalar_sum(list(reversed(els)), spec)


@given(group_specs)
def test_all_elements_count_matches_order(spec):
    if spec.is_finite() and spec.order() <= 1000:
        assert len(list(groups.all_elements(spec))) == spec.order()
