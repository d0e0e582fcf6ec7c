"""Basis arithmetic, symmetric and exterior powers, grading.

Derived expansions are frozen from hand computation of the contingency
tables; the heavier cross-checks against the brute-force engine live in the
engine and acceptance suites.
"""

import json
import os
import random
import subprocess
import sys
from collections import Counter
from functools import lru_cache
from itertools import product
from math import comb, factorial
from pathlib import Path

import pytest

import burnside
from burnside import marks, ring, schur
from burnside.partitions import Partition, enumerate_partitions, pad
from burnside.schur import (
    SchurElement,
    _basis_product,
    basis_element,
    cardinality,
    closed_lambda,
    degree,
    leading_term_check,
    recursive_lambda,
    schur_mul,
    sigma,
)


def B(mu, n):
    return basis_element(Partition(mu), n)


def random_elements(n, count, seed, coeff_range=3, max_terms=4):
    """Deterministic pseudo-random nonzero elements for property tests."""
    rng = random.Random(seed)
    keys = enumerate_partitions(n)
    out = []
    while len(out) < count:
        coeffs = {}
        for _ in range(rng.randint(1, max_terms)):
            c = rng.randint(-coeff_range, coeff_range)
            coeffs[rng.choice(keys)] = c
        element = SchurElement(n, coeffs)
        if not element.is_zero():
            out.append(element)
    return out


def test_construction_canonicalizes():
    x = SchurElement(4, {Partition((2, 2)): 0, Partition((3, 1)): 2})
    assert x.coeffs == {Partition((3, 1)): 2}
    assert SchurElement(4, {}).is_zero()
    with pytest.raises(ValueError):
        SchurElement(4, {Partition((2, 1)): 1})
    with pytest.raises(AttributeError):
        x.ambient = 5


def test_ambient_mismatch_rejected():
    with pytest.raises(ValueError):
        B((2, 1), 3) + B((2, 2), 4)
    with pytest.raises(ValueError):
        schur_mul(B((2, 1), 3), B((2, 2), 4))


def test_basis_element_examples():
    assert B((1,), 5).coeffs == {Partition((4, 1)): 1}
    assert B((5,), 5) == SchurElement.one(5)
    assert B((2, 1), 3).coeffs == {Partition((2, 1)): 1}
    with pytest.raises(ValueError):
        B((3, 1), 3)


def test_render_and_serialization():
    assert B((2, 1), 4).render() == "+1*[P(2,1,1)] @ n=4"
    assert SchurElement.zero(3).render() == "0"
    # descending lex order of keys, signs attached to coefficients
    assert closed_lambda(2, 4).render() == "-1*[P(2,2)] +1*[P(2,1,1)] @ n=4"
    doc = closed_lambda(2, 4).to_json()
    assert doc == {
        "n": 4,
        "terms": [
            {"partition": [2, 2], "coefficient": -1},
            {"partition": [2, 1, 1], "coefficient": 1},
        ],
    }


def test_identity_element():
    one = SchurElement.one(4)
    for mu in enumerate_partitions(4):
        assert schur_mul(one, B(mu, 4)) == B(mu, 4)
        assert schur_mul(B(mu, 4), one) == B(mu, 4)


def test_basis_products_frozen():
    # margins (3,1) x (3,1): the top-left entry is 3 or 2
    assert schur_mul(B((3, 1), 4), B((3, 1), 4)) == B((3, 1), 4) + B((2, 1, 1), 4)
    # margins (2,2) x (2,2): three tables
    assert schur_mul(B((2, 2), 4), B((2, 2), 4)) == (
        2 * B((2, 2), 4) + B((1, 1, 1, 1), 4)
    )
    # margins (2,1) x (2,1): top-left entry 2 or 1; cardinality 3*3 = 3+6
    product = schur_mul(B((2, 1), 3), B((2, 1), 3))
    assert cardinality(product) == 9
    assert product == B((2, 1), 3) + B((1, 1, 1), 3)


def test_schur_mul_commutative_associative():
    for n in (3, 5, 8):
        for a, b, c in zip(*(random_elements(n, 4, seed) for seed in (11, 12, 13))):
            assert schur_mul(a, b) == schur_mul(b, a)
            assert schur_mul(schur_mul(a, b), c) == schur_mul(a, schur_mul(b, c))


def test_cardinality_homomorphism():
    assert cardinality(SchurElement.one(6)) == 1
    assert cardinality(SchurElement.zero(6)) == 0
    assert cardinality(B((2, 2), 4)) == 6
    for n in (3, 4, 6):
        one, zero = SchurElement.one(n), SchurElement.zero(n)
        for a, b in zip(random_elements(n, 6, 21), random_elements(n, 6, 22)):
            size_a, size_b = cardinality(a), cardinality(b)
            assert cardinality(schur_mul(a, b)) == size_a * size_b
            assert cardinality(a + b) == size_a + size_b
            assert cardinality(a - b) == size_a - size_b
            assert cardinality(3 * a) == 3 * size_a and cardinality(b * -2) == -2 * size_b
            assert cardinality(a * one) == size_a and cardinality(a + one) == size_a + 1
            assert cardinality(a * zero) == 0 and cardinality(b + zero) == size_b


def test_sigma_examples():
    for n in (2, 3, 5, 7):
        assert sigma(1, n) == B((1,), n)
    assert sigma(2, 4) == B((3, 1), 4) + B((2, 2), 4)
    assert sigma(2, 5) == B((4, 1), 5) + B((3, 2), 5)
    assert sigma(0, 5) == SchurElement.one(5)
    assert sigma(2, 1) == SchurElement.one(1)
    # two multiset shapes over three points share one block profile
    assert sigma(2, 3) == 2 * B((2, 1), 3)
    assert sigma(3, 1) == SchurElement.one(1)


def test_lambda_examples():
    assert recursive_lambda(1, 3) == B((2, 1), 3)
    assert recursive_lambda(2, 4) == B((2, 1, 1), 4) - B((2, 2), 4)
    assert recursive_lambda(5, 4).is_zero()
    assert recursive_lambda(0, 4) == SchurElement.one(4)
    assert closed_lambda(2, 4) == B((2, 1, 1), 4) - B((2, 2), 4)
    assert closed_lambda(3, 3) == B((1, 1, 1), 3) - 2 * B((2, 1), 3) + B((3,), 3)
    for n in (2, 4, 6):
        assert closed_lambda(1, n) == B((1,), n)
    assert closed_lambda(0, 2) == SchurElement.one(2)
    assert closed_lambda(7, 4).is_zero()


def test_closed_equals_recursive_small():
    for n in range(1, 7):
        for i in range(1, n + 1):
            assert closed_lambda(i, n) == recursive_lambda(i, n), (i, n)


def test_vanishing_beyond_ambient():
    for n in range(1, 7):
        for i in range(n + 1, n + 4):
            assert recursive_lambda(i, n).is_zero()
            assert closed_lambda(i, n).is_zero()


def test_lambda_cardinality_binomial():
    for n in range(1, 9):
        for i in range(0, n + 1):
            assert cardinality(closed_lambda(i, n)) == comb(n, i)


def test_degree_examples():
    assert degree((10,), 10, 4) == 0
    assert degree((6, 3, 1), 10, 4) == 4
    assert degree((3, 3, 2, 2), 10, 4) == 5
    assert degree((9, 1), 10, 4) == 1
    with pytest.raises(ValueError):
        degree((5, 5), 10, 5)
    with pytest.raises(ValueError):
        degree((3, 1), 10, 4)


def test_leading_term_small():
    # [P(9,1)]^2 at n=10: concatenation is (8,1,1)
    report = leading_term_check((9, 1), (9, 1), 10, 4)
    assert report["concatenation"] == [8, 1, 1]
    assert report["coefficient"] == 1
    assert report["ok"], report
    # the identity absorbs anything inside the graded range
    report = leading_term_check((10,), (7, 2, 1), 10, 4)
    assert report["ok"]
    assert report["concatenation"] == [7, 2, 1]
    with pytest.raises(ValueError):
        leading_term_check((6, 4), (6, 4), 10, 4)


def test_leading_term_sweep_n8():
    keys = enumerate_partitions(8)
    checked = 0
    for a in keys:
        for b in keys:
            if degree(a, 8, 3) + degree(b, 8, 3) > 4:
                continue
            checked += 1
            assert leading_term_check(a, b, 8, 3)["ok"], (a, b)
    assert checked > 0


def test_scalar_arithmetic():
    x = B((2, 2), 4)
    assert (x - x).is_zero()
    assert -x + x == SchurElement.zero(4)
    assert 3 * x == x * 3
    assert (2 * x).coeffs == {Partition((2, 2)): 2}


def contingency_tables(mu, nu):
    """Counter of the sorted nonzero entries of every nonnegative integer
    matrix with row sums mu and column sums nu.  Every row but the last is
    drawn from all vectors bounded by the remaining column sums; the last
    row is what the column sums leave."""
    found = Counter()

    def rows(r, cols, entries):
        if r == len(mu) - 1:
            if sum(cols) == mu[r]:
                found[tuple(sorted(entries + [c for c in cols if c], reverse=True))] += 1
            return
        for row in product(*(range(c + 1) for c in cols)):
            if sum(row) == mu[r]:
                rows(r + 1, [c - e for c, e in zip(cols, row)], entries + [e for e in row if e])

    rows(0, list(nu), [])
    return found


def test_basis_product_counts_every_contingency_table():
    # transposing a table keeps its entries, so one enumeration checks both orders
    for n in range(1, 9):
        keys = enumerate_partitions(n)
        for k, a in enumerate(keys):
            for b in keys[k:]:
                expected = contingency_tables(a, b)
                assert _basis_product(tuple(a), tuple(b)) == expected, (a, b)
                assert _basis_product(tuple(b), tuple(a)) == expected, (b, a)


def test_both_orders_of_a_pair_share_one_cached_product():
    a, b = B((3, 2, 1), 6), B((4, 1, 1), 6)
    _basis_product.cache_clear()
    schur._products.cache_clear()
    assert schur_mul(a, b) == schur_mul(b, a)
    assert leading_term_check((8, 1), (7, 2), 9, 4) == leading_term_check((7, 2), (8, 1), 9, 4) | {
        "kappa1": [8, 1], "kappa2": [7, 2], "degrees": [1, 2]}
    # one count per pair: the first order's miss fills both orders
    info = _basis_product.cache_info()
    assert (info.currsize, info.misses, info.hits) == (2, 2, 0)
    # both orders in the ambient's table hold the one product
    six, nine = schur._products(6), schur._products(9)
    assert six[(3, 2, 1)][(4, 1, 1)] is six[(4, 1, 1)][(3, 2, 1)]
    assert nine[(8, 1)][(7, 2)] is nine[(7, 2)][(8, 1)]


def row_fills(total, bounds):
    """Weak compositions of `total` with entry j bounded by bounds[j], one
    column at a time, in ascending lexicographic order."""
    if len(bounds) == 1:
        if total <= bounds[0]:
            yield (total,)
        return
    rest = bounds[1:]
    cap = sum(rest)
    for first in range(max(0, total - cap), min(total, bounds[0]) + 1):
        for tail in row_fills(total - first, rest):
            yield (first,) + tail


def grouped_row_fills(total, cols):
    """Every fill of one row, grouped by (capacities left, sorted; the row's
    nonzero entries, sorted)."""
    groups = Counter()
    for row in row_fills(total, cols):
        left = tuple(sorted(c - e for c, e in zip(cols, row) if c != e))
        groups[left, tuple(sorted(e for e in row if e))] += 1
    return groups


def test_class_fills_group_every_row_fill():
    # the fills by capacity class against the fills column by column
    for n in range(1, 9):
        for nu in enumerate_partitions(n):
            cols = tuple(sorted(nu))
            for total in range(1, n + 1):
                expected = {(left, ring._encode(entries)): count
                            for (left, entries), count in grouped_row_fills(total, cols).items()}
                assert schur._first_row(total, cols) == expected, (total, cols)


def test_permutation_matrices_are_counted_not_enumerated():
    ones = B((1,) * 12, 12)
    assert schur_mul(ones, ones) == factorial(12) * ones


def test_reciprocity_kernel_equals_the_table_product():
    # [P_nu]·λ^j([n]) by reciprocity against the contingency-table product
    for n in range(1, 10):
        for nu in enumerate_partitions(n):
            for j in range(n + 1):
                table = schur_mul(B(nu, n), closed_lambda(j, n))
                coded = schur._lambda_times(tuple(nu), j)
                assert {schur._decode(code): c for code, c in coded.items()} == table.coeffs, (nu, j)


def test_reciprocity_kernel_equals_the_table_product_on_tall_sigma():
    # λ^j·σ^k summed over the keys of σ^k, for powers far above n
    for n in range(1, 4):
        for k in range(1, 61):
            tall = sigma(k, n)
            for j in range(n + 1):
                out = Counter()
                for nu, b in tall.coeffs.items():
                    for code, c in schur._lambda_times(nu, j).items():
                        out[schur._decode(code)] += b * c
                assert SchurElement(n, out) == schur_mul(closed_lambda(j, n), tall), (n, k, j)


def test_codes_join_multisets_by_one_multiplication():
    # parts run past the primes tabled when the test starts, so the table grows
    top = 2 * len(ring._PRIMES)
    rng = random.Random(24)
    for _ in range(400):
        a = [rng.randint(1, top) for _ in range(rng.randint(0, 6))]
        b = [rng.randint(1, rng.choice((3, top))) for _ in range(rng.randint(0, 40))]
        joined = schur._decode(schur._encode(a) * schur._encode(b))
        assert joined == Partition(sorted(a + b, reverse=True)), (a, b)
        assert type(joined) is Partition
    # a code that does not factor down to 1 over the tabled primes is refused
    beyond = ring._PRIMES[-1] + 1
    while any(beyond % p == 0 for p in ring._PRIMES[1:]):
        beyond += 1
    for code in (0, -6, beyond, beyond * schur._encode((3, 1, 1))):
        with pytest.raises(burnside.TheoremViolation, match="not the code"):
            schur._decode(code)


def sigma_reference(i, n):
    """σ^i([n]) from a local enumeration: an i-multiset of {1..n} up to S_n
    is a partition of i with at most n parts, and its stabilizer groups the
    points by multiplicity, the n - len(mu) unused points included."""
    def parts(rest, top, room):
        if rest == 0:
            yield ()
        elif room:
            for p in range(min(rest, top), 0, -1):
                for tail in parts(rest - p, p, room - 1):
                    yield (p,) + tail

    counts = Counter()
    for mu in parts(i, i, n):
        blocks = list(Counter(mu).values()) + ([n - len(mu)] if len(mu) < n else [])
        counts[tuple(sorted(blocks, reverse=True))] += 1
    return SchurElement(n, counts)


def test_sigma_equals_an_enumeration_reference():
    # n >= i shares one profile count; a tall n < i enumerates at most n parts
    cases = [(i, n) for i in range(17) for n in range(1, 19)]
    cases += [(i, n) for i in range(17, 61) for n in range(1, 5)]
    for i, n in cases:
        assert sigma(i, n) == sigma_reference(i, n), (i, n)


def test_recursion_reads_lambda_at_smaller_ambients(monkeypatch):
    # a sigma wrong only at n = 2 reaches the recursion at n = 4 through
    # the λ at n = 2 that reciprocity reads
    real_sigma = schur.sigma

    def wrong_sigma(i, n):
        value = real_sigma(i, n)
        return value + SchurElement.one(n) if (i, n) == (2, 2) else value

    burnside.clear_caches()
    monkeypatch.setattr(schur, "sigma", wrong_sigma)
    try:
        wrong = {i: recursive_lambda(i, 4) for i in range(1, 5)}
    finally:
        monkeypatch.undo()
        burnside.clear_caches()
    assert any(wrong[i] != closed_lambda(i, 4) for i in wrong)
    assert all(recursive_lambda(i, 4) == closed_lambda(i, 4) for i in wrong)


def test_clear_caches_empties_every_cache_and_keeps_results():
    caches = (schur.sigma, schur.recursive_lambda, schur.closed_lambda, schur._basis_product,
              schur._products, schur._first_row, schur._class_fills, schur._points,
              schur._vanished, schur._ambient, marks._placements, marks.marks_vector_order,
              marks._columns)

    def results():
        return (recursive_lambda(6, 6), sigma(7, 4), schur_mul(B((3, 2, 1), 6), B((4, 2), 6)),
                marks.mark_matrix(6), marks.marks_of(sigma(3, 5)), recursive_lambda(9, 6),
                cardinality(sigma(3, 5)), closed_lambda(5, 6))

    before = results()
    assert all(cache.cache_info().currsize for cache in caches)
    burnside.clear_caches()
    assert [cache.cache_info().currsize for cache in caches] == [0] * len(caches)
    assert results() == before


def test_clear_caches_finds_a_cache_where_it_is_declared(monkeypatch):
    @lru_cache(maxsize=None)
    def fresh(n):
        return n

    monkeypatch.setattr(schur, "_fresh", fresh, raising=False)
    schur._fresh(1)
    assert fresh.cache_info().currsize == 1
    burnside.clear_caches()
    assert fresh.cache_info().currsize == 0
    # the recursion's reciprocity kernel is found the same way
    recursive_lambda(5, 5)
    assert schur._lambda_times.cache_info().currsize
    burnside.clear_caches()
    assert schur._lambda_times.cache_info().currsize == 0
    # and so are the coded recursion and the profile counts under sigma
    recursive_lambda(5, 5)
    assert schur._lambda_codes.cache_info().currsize
    assert schur._profiles.cache_info().currsize
    burnside.clear_caches()
    assert schur._lambda_codes.cache_info().currsize == 0
    assert schur._profiles.cache_info().currsize == 0


NON_INTEGER_SIZES = [
    ("closed-power", lambda: closed_lambda(2.0, 3)),
    ("closed-ambient", lambda: closed_lambda(2, 3.5)),
    ("sigma-power", lambda: sigma(2.5, 3)),
    ("sigma-ambient", lambda: sigma(3, 2.5)),
    ("enumerate", lambda: enumerate_partitions(3.5)),
    ("enumerate-max-parts", lambda: enumerate_partitions(4, 1.5)),
    ("element-ambient", lambda: SchurElement(2.5)),
    ("pad-ambient", lambda: pad(Partition((1,)), 2.5)),
]


@pytest.mark.parametrize("call", [c for _, c in NON_INTEGER_SIZES],
                         ids=[name for name, _ in NON_INTEGER_SIZES])
def test_non_integer_sizes_are_refused_before_anything_is_cached(call):
    # 2.0 == 2 and both hash alike, so a float size that reached a cache
    # shared the int's entry and put float parts into every later answer
    burnside.clear_caches()
    with pytest.raises(TypeError):
        call()
    assert json.dumps(closed_lambda(2, 3).to_json()) == json.dumps({
        "n": 3,
        "terms": [{"partition": [2, 1], "coefficient": -1},
                  {"partition": [1, 1, 1], "coefficient": 1}],
    })


@pytest.mark.parametrize("fn, warm, twin", [
    (closed_lambda, (2, 3), (2.0, 3)),
    (closed_lambda, (2, 3), (2, 3.0)),
    (sigma, (3, 2), (3, 2.0)),
    (recursive_lambda, (2, 3), (2.0, 3)),
], ids=["closed-power", "closed-ambient", "sigma-ambient", "recursive-power"])
def test_a_warm_cache_still_refuses_a_float_size(fn, warm, twin):
    # (2.0, 3) == (2, 3) and hashes alike, so an untyped cache answered it
    fn(*warm)
    with pytest.raises(TypeError):
        fn(*twin)


def _assert_built_right(x, n):
    """x holds only partitions of n as keys and nonzero ints as
    coefficients, and equals the element the checked constructor builds."""
    assert x.ambient == n
    for key, c in x.coeffs.items():
        assert type(key) is Partition and key == Partition(tuple(key))
        assert sum(key) == n
        assert type(c) is int and c != 0
    assert x == SchurElement(n, dict(x.coeffs))


def test_trusted_results_are_valid_elements():
    for n in range(1, 10):
        elements = []
        for i in range(n + 3):
            for x in (sigma(i, n), closed_lambda(i, n), recursive_lambda(i, n)):
                _assert_built_right(x, n)
                elements.append(x)
        rng = random.Random(n)
        for _ in range(12):
            x, y = rng.choice(elements), rng.choice(elements)
            k = rng.choice((-2, -1, 0, 1, 3))
            for z in (schur_mul(x, y), x + y, x - y, x - x, -x, x * k, k * x):
                _assert_built_right(z, n)
        for mu in enumerate_partitions(n)[:6]:
            for nu in enumerate_partitions(n)[-6:]:
                _assert_built_right(schur_mul(B(mu, n), B(nu, n)), n)


def test_checked_constructor_still_rejects_bad_keys():
    for key in ((1, 2), (2, 3, 1), (2,), (4, 1), (3, 0), (2, 2, -1)):
        with pytest.raises(ValueError):
            SchurElement(3, {key: 1})
    for mu in ((1, 2), (0,), (2, -1)):
        with pytest.raises(ValueError):
            basis_element(mu, 5)
    with pytest.raises(ValueError):
        basis_element((4, 3), 5)
    for n in (0, -1):
        with pytest.raises(ValueError):
            SchurElement.one(n)
        with pytest.raises(ValueError):
            SchurElement.zero(n)


class _Part(int):
    """An int subclass, as a part of a caller's key."""


KEY_CASES = [
    # (case, the call, (ambient, key) of its valid twin, the answer of
    # the uncached check: the coefficient map, or the exception type and
    # message)
    ("float-part", lambda: SchurElement(3, {(2.0, 1): 1}).coeffs, (3, (2, 1)),
     (TypeError, "'float' object cannot be interpreted as an integer")),
    ("bool-parts", lambda: SchurElement(3, {(True, True, True): 1}).coeffs, (3, (1, 1, 1)),
     {(1, 1, 1): 1}),
    ("int-subclass-part", lambda: SchurElement(3, {(_Part(2), 1): 1}).coeffs, (3, (2, 1)),
     {(2, 1): 1}),
    ("list", lambda: {SchurElement._key(3, [2, 1]): 1}, (3, (2, 1)), {(2, 1): 1}),
    ("increasing", lambda: SchurElement(3, {(1, 2): 1}).coeffs, (3, (2, 1)),
     (ValueError, "partition parts must be weakly decreasing: (1, 2)")),
    ("zero-part", lambda: SchurElement(3, {(0, 3): 1}).coeffs, (3, (3,)),
     (ValueError, "partition parts must be >= 1, got 0")),
    ("other-weight", lambda: SchurElement(3, {(3, 1): 1}).coeffs, (4, (3, 1)),
     (ValueError, "basis key Partition((3, 1)) is not a partition of 3")),
    ("empty", lambda: SchurElement(3, {(): 1}).coeffs, (3, (3,)),
     (ValueError, "basis key Partition(()) is not a partition of 3")),
    ("float-coefficient", lambda: SchurElement(3, {(2, 1): 1.5}).coeffs, (3, (2, 1)),
     (TypeError, "'float' object cannot be interpreted as an integer")),
]


def _key_outcome(call):
    """What a call answers: each key with its type and its parts' types,
    and its coefficient; or the exception's type and message."""
    try:
        coeffs = call()
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return [(key, type(key), [type(p) for p in key], c) for key, c in coeffs.items()]


@pytest.mark.parametrize("call, twin, expected", [c[1:] for c in KEY_CASES],
                         ids=[c[0] for c in KEY_CASES])
def test_a_key_is_checked_alike_cold_and_after_its_twin_is_memoized(call, twin, expected):
    # the checked keys are memoized; (2.0, 1) equals (2, 1) and hashes
    # alike, so a memo keyed by equality alone answers it once (2, 1) is in
    if isinstance(expected, dict):
        expected = _key_outcome(lambda: {Partition(k): c for k, c in expected.items()})
    burnside.clear_caches()
    assert _key_outcome(call) == expected
    ambient, key = twin
    SchurElement(ambient, {key: 1})
    # the twin sits in its own ambient's memo
    assert key in schur._ambient(ambient)[1]
    assert _key_outcome(call) == expected


AMBIENT_CASES = [
    # (case, the call, its answer: the base's type and value, or the
    # exception type and message)
    ("zero", lambda: SchurElement(0), (ValueError, "ambient must be >= 1, got 0")),
    ("negative", lambda: SchurElement(-1, {(1,): 1}), (ValueError, "ambient must be >= 1, got -1")),
    ("float", lambda: SchurElement(2.0, {(2,): 1}),
     (TypeError, "'float' object cannot be interpreted as an integer")),
    ("float-one", lambda: SchurElement(1.0),
     (TypeError, "'float' object cannot be interpreted as an integer")),
    ("unhashable", lambda: SchurElement([2]),
     (TypeError, "'list' object cannot be interpreted as an integer")),
    ("bool", lambda: SchurElement(True, {(1,): 1}), (int, 1)),
]


@pytest.mark.parametrize("call, expected", [c[1:] for c in AMBIENT_CASES],
                         ids=[c[0] for c in AMBIENT_CASES])
def test_an_ambient_is_checked_alike_cold_and_after_a_record_exists(call, expected):
    # the ambient's record is a typed cache: 2.0 equals 2 and 1.0 equals
    # True, each hashing alike, and a refusal is never stored
    def outcome():
        try:
            base = call().base
        except (TypeError, ValueError) as exc:
            assert exc.__context__ is None
            return type(exc), str(exc)
        return type(base), base

    burnside.clear_caches()
    assert outcome() == expected
    SchurElement(2, {(2,): 1})
    SchurElement(True)
    assert outcome() == expected


def test_a_repeated_exact_int_key_is_a_cache_hit(monkeypatch):
    burnside.clear_caches()
    SchurElement(3, {(2, 1): 1})
    checked = []
    check = SchurElement._key

    def counting(ambient, key):
        checked.append(key)
        return check(ambient, key)

    monkeypatch.setattr(SchurElement, "_key", staticmethod(counting))
    x = SchurElement(3, {(2, 1): 2, Partition((1, 1, 1)): 1})
    # the memoized key is read from the memo; only the new key is checked
    assert checked == [(1, 1, 1)]
    assert x.coeffs == {(2, 1): 2, (1, 1, 1): 1}


def test_recursive_lambda_checks_every_power_in_the_tail(monkeypatch):
    # a sigma that is wrong only at i = 7 makes lambda^7 at n = 2 nonzero;
    # asking for lambda^10 must compute it on the way and raise
    real_sigma = schur.sigma

    def wrong_sigma(i, n):
        value = real_sigma(i, n)
        return value + SchurElement.one(n) if i == 7 else value

    burnside.clear_caches()
    monkeypatch.setattr(schur, "sigma", wrong_sigma)
    try:
        # the message shows partition keys, not their codes
        with pytest.raises(burnside.TheoremViolation,
                           match=r"lambda\^7 at n=2 must vanish, got [+-]\d+\*\[P\("):
            recursive_lambda(10, 2)
    finally:
        monkeypatch.undo()
        burnside.clear_caches()
    assert recursive_lambda(10, 2).is_zero()
    assert recursive_lambda(6, 2).is_zero() and recursive_lambda(40, 2).is_zero()


def test_long_vanishing_tail_finishes():
    # for i > n the tail costs O(i*n) products and the recursion stays
    # shallow; an O(i^2) tail needs over a minute for i = 20000
    script = (
        "import sys; sys.setrecursionlimit(120)\n"
        "from burnside.schur import recursive_lambda\n"
        "print(recursive_lambda(5000, 1).render(), recursive_lambda(60, 3).render(),\n"
        "      recursive_lambda(20000, 1).render())\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 0 0\n"
