"""The shared λ-ring core (`burnside.ring`): both models of the Burnside ring
compute λ^i through the same recursion and closed sum, and share one
integer-combination arithmetic."""

import copy
import pickle
from math import comb

import pytest

from burnside import engine, partitions
from burnside.engine import (
    BurnsideElement,
    CapExceeded,
    Permutation,
    burnside_to_schur,
    cyclic_group,
    decompose,
    disjoint_union,
    eq6_general,
    lambda_general,
    natural_gset,
    p_mu_gset,
    symmetric_group,
)
from burnside.marks import marks_of
from burnside.partitions import Partition
from burnside.ring import recursion_step
from burnside.schur import SchurElement, closed_lambda, recursive_lambda, sigma


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_both_models_give_the_same_lambdas(n):
    nat = natural_gset(symmetric_group(n))
    for i in range(n + 3):
        assert burnside_to_schur(lambda_general(nat, i)) == recursive_lambda(i, n), (n, i)
        assert burnside_to_schur(eq6_general(nat, i)) == closed_lambda(i, n), (n, i)


def test_burnside_element_is_immutable():
    group = symmetric_group(3)
    x = decompose(natural_gset(group))
    for name, value in (("group", cyclic_group(3)), ("coeffs", {}), ("base", group)):
        with pytest.raises(AttributeError):
            setattr(x, name, value)
    assert x == decompose(natural_gset(group))
    assert x.group is group


def test_mixing_the_two_models_is_a_type_error():
    schur_one = SchurElement.one(3)
    burnside_one = BurnsideElement.one(symmetric_group(3))
    for a, b in ((schur_one, burnside_one), (burnside_one, schur_one)):
        with pytest.raises(TypeError, match=f"expected {type(a).__name__}"):
            a + b
        with pytest.raises(TypeError):
            a - b
        with pytest.raises(TypeError):
            a * b
        assert a != b


def test_mismatch_messages_are_kept():
    with pytest.raises(ValueError, match="ambient mismatch: n=3 vs n=4"):
        SchurElement.one(3) + SchurElement.one(4)
    with pytest.raises(ValueError, match="group mismatch"):
        BurnsideElement.one(symmetric_group(3)) + BurnsideElement.one(cyclic_group(3))
    with pytest.raises(TypeError, match="expected SchurElement, got int"):
        SchurElement.one(3) + 1


def _doubled_c8():
    nat = natural_gset(cyclic_group(8))
    return disjoint_union(nat, nat)


@pytest.mark.parametrize(
    "gset, i, table_cap, mu",
    [
        # P_(7) has 11440 points and P_(6,1) 80080; P_(5,2) has 240240
        (_doubled_c8(), 7, None, (5, 2)),
        # P_(2) of {1..3} under S_3 needs 6 x 3 table entries, P_(1,1) 6 x 6
        (natural_gset(symmetric_group(3)), 2, 20, (1, 1)),
    ],
    ids=["point-cap", "table-cap"],
)
def test_eq6_checks_every_size_before_building(monkeypatch, gset, i, table_cap, mu):
    if table_cap is not None:
        monkeypatch.setattr(partitions, "TABLE_CAP", table_cap)
    # the error the first over-cap build raises
    with pytest.raises(CapExceeded) as built:
        p_mu_gset(gset, Partition(mu))

    def refuse(*args, **kwargs):
        raise AssertionError("a block-tuple set was built before every size was checked")

    monkeypatch.setattr(engine, "p_mu_gset", refuse)
    with pytest.raises(CapExceeded) as checked:
        eq6_general(gset, i)
    assert checked.value.construction == f"P_({','.join(map(str, mu))})({gset.label})"
    assert (checked.value.kind, checked.value.cap, str(checked.value)) == (
        built.value.kind, built.value.cap, str(built.value))


ROUND_TRIPS = {
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


@pytest.mark.parametrize("how", sorted(ROUND_TRIPS))
def test_elements_survive_pickle_and_copy(how):
    group = symmetric_group(3)
    decomposed = decompose(engine.symmetric_power(natural_gset(group), 2))
    for x in (sigma(2, 4), SchurElement.zero(3), decomposed, decompose(natural_gset(group)) * 0):
        y = ROUND_TRIPS[how](x)
        assert type(y) is type(x)
        assert y == x and hash(y) == hash(x)
        assert y.render() == x.render() and y.to_json() == x.to_json()
        with pytest.raises(AttributeError):
            y.coeffs = {}
    y = ROUND_TRIPS[how](decomposed)
    assert y.group == group and y * y == decomposed * decomposed
    g = group.elements[-1]
    h = ROUND_TRIPS[how](g)
    assert h == g and hash(h) == hash(g) and h.images == g.images
    with pytest.raises(AttributeError):
        h.images = g.images


def answers_and_sizes():
    """A cached answer of each model and its point count: σ^5([4]) has
    C(8, 5) points and the symmetric square of {1..4} has C(5, 2)."""
    square = decompose(engine.symmetric_power(natural_gset(symmetric_group(4)), 2))
    return [(sigma(5, 4), comb(8, 5)), (square, comb(5, 2))]


@pytest.mark.parametrize("how", sorted(ROUND_TRIPS))
def test_a_kept_size_is_invisible(how):
    # an element whose size has been read equals, hashes and reprs like a
    # fresh copy; a round trip keeps none of it and counts it again
    for x, size in answers_and_sizes():
        assert x.cardinality() == size
        fresh = type(x)(x.base, x.coeffs)
        assert fresh._size is None
        y = ROUND_TRIPS[how](x)
        assert y._size is None
        for z in (x, y):
            assert z == fresh and hash(z) == hash(fresh) and repr(z) == repr(fresh)
        assert y.cardinality() == size and y._size == size


def test_a_cached_answer_is_sized_once(monkeypatch):
    counted = []

    def counting(key_size):
        def count(*args):
            counted.append(args[-1])
            return key_size(*args)
        return count

    monkeypatch.setattr(SchurElement, "_key_size", staticmethod(counting(partitions._points)))
    monkeypatch.setattr(BurnsideElement, "_key_size", counting(BurnsideElement._key_size))
    for x, size in answers_and_sizes():
        copied = copy.copy(x)
        counted.clear()
        assert copied.cardinality() == size
        assert sorted(counted) == sorted(x.coeffs)
        x.cardinality()
        counted.clear()
        assert x.cardinality() == size and copied.cardinality() == size
        assert counted == []


S3_KEY = (0, 1, 2, 3, 4, 5)  # the class of the one-point S_3-set


@pytest.mark.parametrize("build, bad, good, expected", [
    (lambda x: Partition([x, 1]), 2.7, 2, (2, 1)),
    (lambda c: SchurElement(4, {(2, 2): c}).coeffs, 1.5, True, {(2, 2): 1}),
    (lambda c: BurnsideElement(symmetric_group(3), {S3_KEY: c}).coeffs, 2.9, 2, {S3_KEY: 2}),
    (lambda x: Permutation([x, 1]).images, 2.0, 2, (2, 1)),
], ids=["partition", "schur-coefficient", "burnside-coefficient", "permutation"])
def test_checked_constructors_refuse_non_integers(build, bad, good, expected):
    # a float is refused, not truncated; ints and bools still pass
    with pytest.raises(TypeError):
        build(bad)
    assert build(good) == expected


VALUES = {
    "Permutation": lambda: Permutation((2, 3, 1)),
    "SchurElement": lambda: SchurElement(4, {(2, 2): 1, (3, 1): -2}),
    "BurnsideElement": lambda: decompose(natural_gset(symmetric_group(3))),
    "MarkVector": lambda: marks_of(SchurElement(4, {(2, 2): 1, (3, 1): -2})),
}


@pytest.mark.parametrize("kind", sorted(VALUES))
def test_every_value_type_refuses_set_and_delete(kind):
    x = VALUES[kind]()
    assert type(x).__name__ == kind
    slots = [name for cls in type(x).__mro__ for name in getattr(cls, "__slots__", ())]
    assert slots
    for name in slots:
        value = getattr(x, name)
        with pytest.raises(AttributeError, match=f"^{kind} is immutable$"):
            setattr(x, name, value)
        with pytest.raises(AttributeError, match=f"^{kind} is immutable$"):
            delattr(x, name)
        assert getattr(x, name) is value
    assert x == VALUES[kind]() and repr(x) == repr(VALUES[kind]())


def test_a_refused_delete_leaves_the_cached_lambda_whole():
    before = closed_lambda(2, 3).render()
    with pytest.raises(AttributeError, match="^SchurElement is immutable$"):
        del closed_lambda(2, 3).coeffs
    assert closed_lambda(2, 3).render() == before


def test_the_recursion_step_sums_plain_maps():
    # a toy model: the point counts of a 4-point set, one key, no element type
    def product(j, k):
        return {"*": comb(4, j) * comb(4 + k - 1, k)}

    for i in range(1, 5):
        assert recursion_step(i, 4, product, "in the toy model", repr) == {"*": comb(4, i)}
    for i in range(5, 9):
        assert recursion_step(i, 4, product, "in the toy model", repr) == {}

    def broken(j, k):
        return {"*": product(j, k)["*"] + (j == 0)}

    with pytest.raises(partitions.TheoremViolation,
                       match=r"^lambda\^5 in the toy model must vanish, got \{'\*': 1\}$"):
        recursion_step(5, 4, broken, "in the toy model", repr)
