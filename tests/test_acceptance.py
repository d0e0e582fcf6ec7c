"""Acceptance gate: the twelve headline identities, end to end.

Every check here compares two independent routes to the same object (a
closed formula against a recursion, a formula against the brute-force
engine, a structural theorem against exhaustive enumeration) and prints a
single PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time
from math import comb

from burnside import verify
from burnside.engine import (
    burnside_to_schur,
    cyclic_group,
    decompose,
    dihedral_group,
    disjoint_union,
    eq6_general,
    lambda_general,
    natural_gset,
    p_mu_gset,
    parse_permutation,
    product_gset,
    schur_membership,
    stabilizer,
    symmetric_group,
    symmetric_power,
    verify_lemma73,
    verify_lemma74,
)
from burnside.marks import marks_of, marks_vector_order
from burnside.partitions import enumerate_partitions
from burnside.schur import (
    basis_element,
    cardinality,
    closed_lambda,
    recursive_lambda,
    schur_mul,
    sigma,
)

from test_marks import poly_mul
from test_schur import random_elements


def _report(index: int, ok: bool, description: str):
    verdict = "PASS" if ok else "FAIL"
    print(f"[{index:2d}/12] {verdict}: {description}")
    assert ok, f"acceptance check {index} failed: {description}"


def test_closed_formula_matches_recursion():
    start = time.perf_counter()
    equal = verify.lambda_equalities(10, 10)
    elapsed = time.perf_counter() - start
    ok = equal["passed"] == equal["total"] == 55 and elapsed < 60.0
    _report(
        1,
        ok,
        f"closed formula = recursion for all 55 cases 1 <= i <= n <= 10 "
        f"({elapsed:.2f}s)",
    )


def test_lambda_vanishes_above_ambient():
    failures = [
        (i, n)
        for n in range(1, 9)
        for i in range(n + 1, n + 4)
        if not (recursive_lambda(i, n).is_zero() and closed_lambda(i, n).is_zero())
    ]
    _report(2, not failures, "lambda^i = 0 for n < i <= n+3, n <= 8 (24 cases)")


def test_sigma_matches_engine_symmetric_powers():
    failures = []
    for n in range(1, 7):
        nat = natural_gset(symmetric_group(n))
        for i in range(0, 7):
            engine_side = burnside_to_schur(decompose(symmetric_power(nat, i)))
            if engine_side != sigma(i, n):
                failures.append((i, n))
    _report(3, not failures, "sigma(i,n) = engine symmetric power, i <= 6, n <= 6")


def test_basis_products_match_engine():
    failures = []
    for n in range(1, 6):
        nat = natural_gset(symmetric_group(n))
        keys = enumerate_partitions(n)
        gsets = {mu: p_mu_gset(nat, mu) for mu in keys}
        for a in range(len(keys)):
            for b in range(a, len(keys)):
                mu, nu = keys[a], keys[b]
                formula = schur_mul(basis_element(mu, n), basis_element(nu, n))
                engine_side = burnside_to_schur(
                    decompose(product_gset(gsets[mu], gsets[nu]))
                )
                if formula != engine_side:
                    failures.append((tuple(mu), tuple(nu), n))
    _report(4, not failures, "all basis products match the engine, n <= 5")


def test_mark_matrix_triangular_and_marks_faithful():
    triangular = verify.mark_matrices(10)
    structural = triangular["passed"] == triangular["total"] == 10
    sampled = 0
    faithful = True
    for n in range(1, 9):
        for x in random_elements(n, 125, seed=500 + n):
            sampled += 1
            if not any(marks_of(x).values):
                faithful = False
    ok = structural and faithful and sampled == 1000
    _report(
        5,
        ok,
        "mark matrices lower-triangular with nonzero diagonal (n <= 10); "
        "marks nonzero on 1000 random nonzero elements (n <= 8)",
    )


def test_block_tuple_classes_induce_correctly():
    failures = []
    for i in range(1, 4):
        for mu in enumerate_partitions(i):
            for n in range(i, 7):
                if not verify_lemma74(mu, i, n)["isomorphic"]:
                    failures.append((tuple(mu), i, n))
    _report(
        6,
        not failures,
        "block-tuple classes induced from i points match those on n points, "
        "i <= 3, n <= 6",
    )


def test_top_exterior_power_induces_correctly():
    start = time.perf_counter()
    failures = []
    for i in range(1, 4):
        for n in range(i, 7):
            if not verify_lemma73(i, n)["pass"]:
                failures.append((i, n))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 300.0
    _report(
        7,
        ok,
        f"top exterior power induces correctly, i <= 3, n <= 6 ({elapsed:.2f}s)",
    )


def test_general_gsets_closed_sum_equals_recursion():
    cases = [natural_gset(cyclic_group(n)) for n in range(1, 7)]
    cases.append(natural_gset(dihedral_group(4)))
    cases.extend(natural_gset(symmetric_group(n)) for n in range(1, 6))
    two_points = natural_gset(symmetric_group(2))
    cases.append(disjoint_union(two_points, two_points))
    failures = []
    for gset in cases:
        for i in range(0, gset.size + 2):
            if eq6_general(gset, i) != lambda_general(gset, i):
                failures.append((gset.label, i))
    _report(
        8,
        not failures,
        "closed signed sum = recursion on cyclic, dihedral, symmetric and a "
        "non-transitive G-set, 0 <= i <= |S|+1",
    )


def test_iterated_symmetric_square_stabilizer():
    inner = symmetric_power(natural_gset(symmetric_group(4)), 2)
    inner_ok = all(v["schur"] for v in schur_membership(inner))
    outer = symmetric_power(inner, 2)
    point = tuple(sorted((inner.index_of((0, 1)), inner.index_of((2, 3)))))
    stab = stabilizer(outer, point)
    wanted = [
        parse_permutation(text, 4)
        for text in ("(1 2)", "(3 4)", "(1 3)(2 4)", "(1 4)(2 3)")
    ]
    non_schur = [v for v in schur_membership(outer) if not v["schur"]]
    ok = (
        stab.order == 8
        and all(g in stab for g in wanted)
        and len(non_schur) >= 1
        and inner_ok
    )
    _report(
        9,
        ok,
        "stabilizer of {{1,2},{3,4}} in the iterated symmetric square has "
        "order 8 and is not a block stabilizer, while the single symmetric "
        "square stays in the block-tuple span",
    )


def test_lambda_cardinality_is_binomial():
    failures = [
        (i, n)
        for n in range(1, 13)
        for i in range(1, n + 1)
        if cardinality(closed_lambda(i, n)) != comb(n, i)
    ]
    _report(10, not failures, "|lambda^i({1..n})| = C(n,i) for 1 <= i <= n <= 12")


def test_leading_terms_in_low_degree_products():
    leading = verify.leading_terms(12)
    checked = leading["checked"]
    ok = leading["passed"] == checked == 120
    _report(
        11,
        ok,
        f"products at n=12, k=5 with degree sum <= 6 have the concatenation "
        f"class with coefficient 1 and nothing else of full degree "
        f"({checked} pairs)",
    )


def test_mark_series_inverse_identity():
    failures = []
    for n in range(1, 9):
        sigma_rows = [marks_of(sigma(i, n)) for i in range(n + 1)]
        lambda_rows = [marks_of(closed_lambda(i, n)) for i in range(n + 1)]
        for col, nu in enumerate(marks_vector_order(n)):
            sigma_series = [row.values[col] for row in sigma_rows]
            lambda_series = [
                row.values[col] * ((-1) ** i) for i, row in enumerate(lambda_rows)
            ]
            product = poly_mul(sigma_series, lambda_series, n)
            if product != [1] + [0] * n:
                failures.append((n, tuple(nu)))
    _report(
        12,
        not failures,
        "sigma series times lambda series at -t is 1 mod t^(n+1) at every "
        "cycle type, n <= 8",
    )
