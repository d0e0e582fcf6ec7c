"""Fixed-point counts and the mark homomorphism.

Two independent oracles: brute-force fixed-point tallies on explicit
block-tuple G-sets, and truncated power series built with a standalone
polynomial helper (for the generating identities).
"""

import copy
import os
import pickle
import random
import subprocess
import sys
from math import factorial, prod
from pathlib import Path

import pytest

from burnside import marks, partitions
from burnside.engine import (
    CapExceeded,
    Permutation,
    natural_gset,
    p_mu_gset,
    symmetric_group,
)
from burnside.marks import (
    MarkVector,
    fixed_points,
    mark_matrix,
    marks_of,
    marks_vector_order,
    verify_injectivity,
)
from burnside.partitions import alpha, enumerate_partitions
from burnside.schur import SchurElement, basis_element, closed_lambda, schur_mul, sigma

from test_schur import random_elements


def poly_mul(a, b, truncate):
    """Product of coefficient lists, truncated past degree `truncate`."""
    out = [0] * (truncate + 1)
    for i, ai in enumerate(a):
        if i > truncate or not ai:
            continue
        for j, bj in enumerate(b):
            if i + j > truncate:
                break
            out[i + j] += ai * bj
    return out


def geometric(step, truncate):
    """1/(1 - t^step) as a truncated coefficient list."""
    out = [0] * (truncate + 1)
    for k in range(0, truncate + 1, step):
        out[k] = 1
    return out


def permutation_of_type(nu, n):
    """A concrete permutation with the given cycle type, cycles laid out
    left to right."""
    cycles = []
    start = 1
    for length in nu:
        cycles.append(tuple(range(start, start + length)))
        start += length
    return Permutation.from_cycles([c for c in cycles if len(c) > 1], n)


def test_fixed_points_examples():
    for nu in enumerate_partitions(5):
        assert fixed_points((5,), nu) == 1
    assert fixed_points((2, 2), (2, 2)) == 2
    for mu in enumerate_partitions(6):
        expected = factorial(6) // prod(factorial(p) for p in mu)
        assert fixed_points(mu, (1, 1, 1, 1, 1, 1)) == expected
    with pytest.raises(ValueError):
        fixed_points((2, 1), (2, 2))


def test_fixed_points_against_brute_force():
    for n in range(1, 6):
        nat = natural_gset(symmetric_group(n))
        for mu in enumerate_partitions(n):
            gset = p_mu_gset(nat, mu)
            for nu in enumerate_partitions(n):
                g = permutation_of_type(nu, n)
                brute = sum(1 for p in gset.points if gset.act(g, p) == p)
                assert fixed_points(mu, nu) == brute, (mu, nu)


def test_diagonal_is_product_of_run_factorials():
    # cycles of the diagonal type match blocks bijectively within runs
    for n in range(1, 9):
        for mu in enumerate_partitions(n):
            expected = prod(factorial(a) for a in alpha(mu))
            assert fixed_points(mu, mu) == expected


def test_mark_matrix_small():
    assert mark_matrix(1) == [[1]]
    assert mark_matrix(2) == [[1, 0], [1, 2]]
    matrix = mark_matrix(6)
    for d in range(len(matrix)):
        assert matrix[d][d] != 0


def test_mark_matrix_triangular():
    for n in range(1, 9):
        matrix = mark_matrix(n)
        for r in range(len(matrix)):
            for c in range(r + 1, len(matrix)):
                assert matrix[r][c] == 0, (n, r, c)


def test_rows_agree_with_the_cell_counter():
    # mark_matrix counts whole rows by grouping cycles, fixed_points one
    # cell by placing cycles into blocks: two independent counters
    for n in range(13):
        order = marks_vector_order(n)
        matrix = mark_matrix(n)
        assert len(matrix) == len(order)
        for nu, row in zip(order, matrix):
            assert row == [fixed_points(mu, nu) for mu in order], (n, nu)


def bell(k):
    """Set partitions of k labelled items, from the Bell triangle."""
    row = [1]
    for _ in range(k):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
    return row[0]


def test_groupings_count_every_set_partition_of_the_cycles():
    assert [bell(k) for k in range(6)] == [1, 1, 2, 5, 15, 52]
    for n in range(11):
        for nu in enumerate_partitions(n):
            counts = {(): 1}
            for c in reversed(nu):
                counts = marks._join(counts, c)
            assert sum(counts.values()) == bell(len(nu)), nu
            assert all(sum(sums) == n and list(sums) == sorted(sums) for sums in counts)


def test_mark_rows_hold_every_cycle_type_once_with_its_nonzero_cells():
    for n in range(13):
        order = marks_vector_order(n)
        rows = list(marks.mark_rows(n))
        assert sorted(r for r, _ in rows) == list(range(len(order))), n
        for r, cells in rows:
            assert type(r) is int
            assert cells == {c: v for c, mu in enumerate(order)
                             if (v := fixed_points(mu, order[r]))}, (n, r)


def test_the_walk_extends_every_prefix_once(monkeypatch):
    # one step per prefix of an ascending cycle tuple of n, the nodes of
    # the trie the rows are walked on
    calls = []
    real = marks._join

    def counting(counts, c):
        calls.append(c)
        return real(counts, c)

    monkeypatch.setattr(marks, "_join", counting)
    for n in (6, 18):
        calls.clear()
        prefixes = {tuple(reversed(nu))[:k] for nu in enumerate_partitions(n)
                    for k in range(1, len(nu) + 1)}
        assert len(list(marks.mark_rows(n))) == len(enumerate_partitions(n))
        assert len(calls) == len(prefixes)
    assert len(prefixes) == 769


def test_the_moves_cache_lives_for_one_walk():
    rows = marks.mark_rows(8)
    next(rows)
    assert marks._moves.cache_info().currsize
    assert len(list(rows)) == len(enumerate_partitions(8)) - 1
    assert marks._moves.cache_info().currsize == 0


def test_mark_cells_are_capped_before_any_partition_is_enumerated(monkeypatch):
    def refuse(n):
        raise AssertionError("partitions enumerated past the cap")

    monkeypatch.setattr(marks, "marks_vector_order", refuse)
    monkeypatch.setattr(marks, "enumerate_partitions", refuse)
    # p(29)^2 = 20,839,225 is within the 30M cap, p(30)^2 = 31,404,816 is not
    marks._check_cells(29)
    for build in (marks.mark_rows, mark_matrix, verify_injectivity):
        for n in (30, 40, 10 ** 9):
            with pytest.raises(CapExceeded) as exc:
                build(n)
            assert (exc.value.kind, exc.value.cap) == ("mark-cells", 30_000_000)
            assert f"n={n}" in str(exc.value)


def test_mark_cell_cap_is_read_when_checked(monkeypatch):
    # p(5)^2 = 49 cells; the table cap is the mark-cell cap
    monkeypatch.setattr(partitions, "TABLE_CAP", 10)
    for build in (mark_matrix, marks.mark_rows, verify_injectivity):
        with pytest.raises(CapExceeded) as exc:
            build(5)
        assert (exc.value.kind, exc.value.cap) == ("mark-cells", 10)
    monkeypatch.setattr(partitions, "TABLE_CAP", 49)
    assert len(mark_matrix(5)) == 7


def test_verify_injectivity_reports_a_cell_above_the_diagonal(monkeypatch):
    # one row of the grouping counts gains the key of the column right of
    # its diagonal cell
    n = 6
    order = marks_vector_order(n)
    nu, mu = order[2], order[3]
    real = marks._groupings

    def faulty(n):
        for cycles, counts in real(n):
            if cycles == tuple(reversed(nu)):
                counts = dict(counts)
                counts[tuple(reversed(mu))] = 1
            yield cycles, counts

    monkeypatch.setattr(marks, "_groupings", faulty)
    report = verify_injectivity(n)
    assert not report["triangular"]
    assert report["diagonal_nonzero"]
    assert report["failures"] == [{
        "cycle_type": list(nu),
        "basis_key": list(mu),
        "value": prod(factorial(a) for a in alpha(mu)),
        "reason": "nonzero entry above the diagonal",
    }]


def test_verify_injectivity_reports_missing_diagonal_cells_in_row_order(monkeypatch):
    # the rows are walked in another order than the report's (row, column)
    # order; a diagonal cell left out of its row counts as zero
    n = 6
    order = marks_vector_order(n)
    real = marks._groupings
    dropped = {tuple(reversed(order[r])) for r in (1, 8)}

    def faulty(n):
        for cycles, counts in real(n):
            if cycles in dropped:
                counts = {sums: c for sums, c in counts.items() if sums != cycles}
            elif cycles == tuple(reversed(order[4])):
                counts = dict(counts) | {tuple(reversed(order[9])): 2}
            yield cycles, counts

    monkeypatch.setattr(marks, "_groupings", faulty)
    report = verify_injectivity(n)
    assert not report["triangular"] and not report["diagonal_nonzero"]
    assert [d == 0 for d in report["diagonal"]] == [r in (1, 8) for r in range(len(order))]
    assert [(f["cycle_type"], f["basis_key"], f["reason"]) for f in report["failures"]] == [
        (list(order[1]), list(order[1]), "zero diagonal entry"),
        (list(order[4]), list(order[9]), "nonzero entry above the diagonal"),
        (list(order[8]), list(order[8]), "zero diagonal entry"),
    ]
    assert report["cells_checked"] == len(order) ** 2


def test_verify_injectivity_reports():
    for n in (1, 4, 8):
        report = verify_injectivity(n)
        assert report["triangular"]
        assert report["diagonal_nonzero"]
        assert report["failures"] == []
        assert report["cells_checked"] == len(marks_vector_order(n)) ** 2


def test_marks_of_basics():
    zero = marks_of(SchurElement.zero(5))
    assert set(zero.values) == {0}
    ones = marks_of(SchurElement.one(5))
    assert set(ones.values) == {1}
    x = marks_of(basis_element((2, 1), 3))
    assert x.ambient == 3
    assert x.cycle_types == ((3,), (2, 1), (1, 1, 1))


def test_marks_multiplicative():
    # random elements, and every pair mu >= nu of basis classes at n <= 10
    # (1,860 pairs): marks are an injective ring map, so the second is a
    # complete check of the product at those n
    pairs = [pair for n in (2, 4, 6) for pair in zip(random_elements(n, 5, 31),
                                                      random_elements(n, 5, 32))]
    for n in range(1, 11):
        basis = [basis_element(mu, n) for mu in enumerate_partitions(n)]
        pairs += [(x, y) for j, x in enumerate(basis) for y in basis[j:]]
    assert len(pairs) == 15 + 1860
    for a, b in pairs:
        lhs = marks_of(schur_mul(a, b)).values
        va, vb = marks_of(a).values, marks_of(b).values
        assert lhs == tuple(x * y for x, y in zip(va, vb)), (a, b)


def test_sigma_marks_are_geometric_series():
    # sum_i marks(sigma^i)_nu t^i = prod_j 1/(1 - t^{nu_j})
    for n in range(1, 7):
        order = marks_vector_order(n)
        i_max = n + 3
        series = {nu: [] for nu in order}
        for i in range(i_max + 1):
            vec = marks_of(sigma(i, n))
            for nu, value in zip(vec.cycle_types, vec.values):
                series[nu].append(value)
        for nu in order:
            expected = [1] + [0] * i_max
            for part in nu:
                expected = poly_mul(expected, geometric(part, i_max), i_max)
            assert series[nu] == expected, nu


def test_lambda_marks_series():
    # sum_i marks(lambda^i)_nu t^i = prod_j (1 - (-t)^{nu_j})
    for n in range(1, 7):
        order = marks_vector_order(n)
        series = {nu: [] for nu in order}
        for i in range(n + 1):
            vec = marks_of(closed_lambda(i, n))
            for nu, value in zip(vec.cycle_types, vec.values):
                series[nu].append(value)
        for nu in order:
            expected = [1] + [0] * n
            for part in nu:
                factor = [0] * (n + 1)
                factor[0] = 1
                if part <= n:
                    factor[part] = -((-1) ** part)
                expected = poly_mul(expected, factor, n)
            assert series[nu] == expected, nu


def test_orbit_count_consistency():
    # P_mu is transitive, so fixed points average to 1 over the group;
    # class sizes n!/z_nu come from the independent centralizer formula
    for n in range(1, 6):
        for mu in enumerate_partitions(n):
            total = 0
            for nu in enumerate_partitions(n):
                counts = {}
                for part in nu:
                    counts[part] = counts.get(part, 0) + 1
                z = prod(m ** c * factorial(c) for m, c in counts.items())
                total += (factorial(n) // z) * fixed_points(mu, nu)
            assert total == factorial(n), mu


def test_marks_nonzero_on_random_nonzero_elements():
    rng_cases = [(n, seed) for n in range(1, 9) for seed in range(3)]
    for n, seed in rng_cases:
        for x in random_elements(n, 10, 100 + seed):
            assert any(marks_of(x).values), x.render()


def test_render_lists_cycle_types():
    text = marks_of(SchurElement.one(2)).render()
    assert text.splitlines() == ["(2): 1", "(1,1): 1"]


def test_column_marks_equal_the_row_sum():
    # marks_of adds cached basis columns, each from its first nonzero mark;
    # the row sum over the terms with the checked fixed_points is the
    # definition
    inputs = []
    for n in range(1, 8):
        keys = enumerate_partitions(n)
        for mu in keys:
            for nu in keys:
                inputs += [schur_mul(basis_element(mu, n), basis_element(nu, n)),
                           2 * basis_element(mu, n) - 3 * basis_element(nu, n)]
    # three columns that start at indices 0, 1 and 2 and cancel at (3, 1)
    three = SchurElement(4, {(4,): 2, (3, 1): -2, (2, 2): 1})
    assert sorted(marks._mark_column(mu)[0] for mu in three.coeffs) == [0, 1, 2]
    assert marks_of(three).values[1] == 0
    for x in inputs + [three]:
        order = marks_vector_order(x.ambient)
        rows = tuple(sum(c * fixed_points(key, cycles) for key, c in x.coeffs.items())
                     for cycles in order)
        assert marks_of(x).values == rows
        assert marks_of(x).cycle_types == tuple(order)


def test_mark_vector_record():
    import burnside

    x = marks_of(sigma(2, 3))
    y = marks_of(sigma(2, 3))
    assert burnside.MarkVector is MarkVector
    assert x == y and hash(x) == hash(y) and x is not y
    assert x != marks_of(sigma(1, 3)) and x != marks_of(sigma(2, 4))
    assert x != (x.ambient, x.cycle_types, x.values)
    assert (x.ambient, x.cycle_types, x.values) == (3, marks_vector_order(3), (0, 2, 6))
    assert MarkVector(3, x.cycle_types, x.values) == x
    for name in ("ambient", "cycle_types", "values", "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, 0)
    with pytest.raises(AttributeError):
        del x.values
    assert (x.cycle_types[0], x.values[0]) == ((3,), 0)
    assert x.render().splitlines()[-1] == "(1,1,1): 6"
    assert repr(x).startswith("MarkVector(ambient=3, cycle_types=(")
    for round_trip in (lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy):
        y = round_trip(x)
        assert type(y) is MarkVector and y == x and hash(y) == hash(x)
        assert y.cycle_types == x.cycle_types and y.render() == x.render()
        with pytest.raises(AttributeError):
            y.values = ()


def test_cli_import_leaves_out_dataclasses():
    # run without site, whose start-up hooks may import dataclasses themselves
    src = str(Path(__file__).resolve().parents[1] / "src")
    script = "import sys, burnside.cli; print('dataclasses' in sys.modules, 'inspect' in sys.modules)"
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False False\n"
