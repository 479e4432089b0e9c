import hypothesis.strategies as st

from zerosum import groups
from zerosum.groups import GroupSpec
from zerosum.sumfull import InputSet

Z = GroupSpec(1, ())


def zmod(m: int) -> GroupSpec:
    return GroupSpec(0, (m,))


def f3(d: int) -> GroupSpec:
    return GroupSpec(0, (3,) * d)


def el(spec: GroupSpec, *coords):
    return groups.element(spec, list(coords))


def zset(*values: int) -> InputSet:
    return InputSet.from_elements(Z, [el(Z, v) for v in values])


class NoPower(int):
    """An int whose powers raise, to show that a size cap is checked before p^m is computed."""

    def __pow__(self, other, mod=None):
        raise AssertionError("a power was computed before the size checks")


def full_nonzero(spec: GroupSpec) -> InputSet:
    z = groups.zero(spec)
    return InputSet.from_elements(spec, [x for x in groups.all_elements(spec) if x != z])


group_specs = st.builds(
    GroupSpec,
    st.integers(min_value=0, max_value=2),
    st.lists(st.integers(min_value=2, max_value=9), max_size=3).map(tuple),
)


@st.composite
def spec_with_elements(draw, min_elements=1, max_elements=8, bound=30):
    spec = draw(group_specs)
    n = draw(st.integers(min_value=min_elements, max_value=max_elements))
    els = [
        groups.element(
            spec,
            draw(st.lists(st.integers(min_value=-bound, max_value=bound),
                          min_size=spec.free_rank + len(spec.torsion),
                          max_size=spec.free_rank + len(spec.torsion))),
        )
        for _ in range(n)
    ]
    return spec, els
