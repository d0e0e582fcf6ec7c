"""Ring axioms of both Burnside-ring models, on random small elements:
`SchurElement`s for n <= 6 and `BurnsideElement`s over S_3 and D_4."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from burnside.engine import BurnsideElement, dihedral_group, group_closure, symmetric_group  # noqa: E402
from burnside.partitions import enumerate_partitions  # noqa: E402
from burnside.schur import SchurElement  # noqa: E402

# derandomized and without a deadline, so CI time is bounded and the run
# does not depend on the machine's speed
AXIOMS = settings(derandomize=True, deadline=None, database=None)
COEFFS = st.integers(-3, 3)
SCALARS = st.integers(-4, 4)


def _class_keys(group):
    """The canonical key of every subgroup class; every subgroup of S_3 and
    D_4 is generated by two elements."""
    return sorted({
        group.canonical_key(group_closure([a, b], degree=group.degree).elements)
        for a in group.elements
        for b in group.elements
    })


def _triples(base, keys, make):
    element = st.dictionaries(st.sampled_from(keys), COEFFS, max_size=4).map(
        lambda coeffs: make(base, coeffs))
    return st.tuples(element, element, element)


SCHUR = st.sampled_from([2, 3, 4, 5, 6]).flatmap(
    lambda n: _triples(n, enumerate_partitions(n), SchurElement))
BURNSIDE = st.sampled_from([symmetric_group(3), dihedral_group(4)]).flatmap(
    lambda group: _triples(group, _class_keys(group), BurnsideElement))


def _check_axioms(a, b, c, k, m, one, zero):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a + zero == a and a * one == a and a * zero == zero
    assert a + (-a) == zero and -(-a) == a and a - b == a + (-b)
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert k * a == a * k
    assert k * (a + b) == k * a + k * b
    assert (k + m) * a == k * a + m * a
    assert (k * m) * a == k * (m * a)
    assert k * (a * b) == (k * a) * b
    assert 1 * a == a and (0 * a).is_zero()
    assert hash(a + b) == hash(b + a)


@AXIOMS
@given(SCHUR, SCALARS, SCALARS)
def test_schur_ring_axioms(elements, k, m):
    a, b, c = elements
    n = a.ambient
    _check_axioms(a, b, c, k, m, SchurElement.one(n), SchurElement.zero(n))


@AXIOMS
@given(BURNSIDE, SCALARS, SCALARS)
def test_burnside_ring_axioms(elements, k, m):
    a, b, c = elements
    group = a.group
    _check_axioms(a, b, c, k, m, BurnsideElement.one(group), BurnsideElement.zero(group))
