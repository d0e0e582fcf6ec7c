"""The theorem checks behind `burnside verify`, as library code.

Four families each compare the paper's statements with an independent
route, case by case:

- `lambda_equalities`: the closed signed sum for λ^i({1..n}) equals the
  defining recursion, for 1 <= i <= min(n, i_max) and n <= n_max;
- `vanishing`: both constructions give zero for n < i <= i_max;
- `mark_matrices`: the mark matrix at each n <= n_max is lower-triangular
  with a nonzero diagonal, so the marks are injective;
- `leading_terms`: at n = n_max and k = (n_max - 1) // 2, each product of
  two basis classes whose degrees sum to at most n_max // 2 has the
  concatenation class as its leading term.

Each family returns {passed, total, failures}, with one failure record per
failed case in the order the cases are checked; `leading_terms` names its
count `checked`.  `FAMILIES` is their one table, in run order, so a new
family is one entry.  `sweep` checks its arguments, refuses an n past the
mark-cell cap before any family runs, then runs the table; `failed` decides
its verdict and `render` gives its text lines.  No engine is loaded here.
"""

from __future__ import annotations

from .marks import _check_cells, verify_injectivity
from .partitions import enumerate_partitions
from .schur import closed_lambda, degree, leading_term_check, recursive_lambda


def _tally(cases, failure) -> dict:
    """Check every case in order: failure(*case) is None on a pass and the
    failure record otherwise."""
    total, failures = 0, []
    for case in cases:
        total += 1
        record = failure(*case)
        if record is not None:
            failures.append(record)
    return {"passed": total - len(failures), "total": total, "failures": failures}


def lambda_equalities(n_max: int, i_max: int) -> dict:
    return _tally(
        ((i, n) for n in range(1, n_max + 1) for i in range(1, min(n, i_max) + 1)),
        lambda i, n: None if closed_lambda(i, n) == recursive_lambda(i, n) else {"i": i, "n": n},
    )


def vanishing(n_max: int, i_max: int) -> dict:
    return _tally(
        ((i, n) for n in range(1, n_max + 1) for i in range(n + 1, i_max + 1)),
        lambda i, n: (
            None if recursive_lambda(i, n).is_zero() and closed_lambda(i, n).is_zero()
            else {"i": i, "n": n}
        ),
    )


def mark_matrices(n_max: int) -> dict:
    def untriangular(n):
        report = verify_injectivity(n)
        if report["triangular"] and report["diagonal_nonzero"]:
            return None
        return {"n": n, "failures": report["failures"]}

    return _tally(((n,) for n in range(1, n_max + 1)), untriangular)


def leading_terms(n_max: int) -> dict:
    k = (n_max - 1) // 2
    keys = list(enumerate_partitions(n_max)) if k >= 1 else []
    # one degree per key, not one per pair
    degrees = [degree(a, n_max, k) for a in keys]

    def off_leading(a, b):
        report = leading_term_check(a, b, n_max, k)
        return None if report["ok"] else report

    leading = _tally(
        (
            (a, b)
            for j, a in enumerate(keys)
            for b, db in zip(keys[j:], degrees[j:])
            if degrees[j] + db <= n_max // 2
        ),
        off_leading,
    )
    leading["checked"] = leading.pop("total")
    return leading


# (report key, how it runs from (n_max, i_max), its text line or None), in run order
FAMILIES = (
    ("lambda_equalities", lambda_equalities,
     lambda part, n_max, i_max: "lambda equalities (closed vs recursive), 1 <= i <= "
     + (f"n <= {n_max}" if i_max >= n_max else f"min(n, {i_max}), n <= {n_max}")
     + f": {part['passed']}/{part['total']}"),
    ("vanishing", vanishing,
     lambda part, n_max, i_max: f"vanishing above n (both constructions), n < i <= {i_max}: "
     f"{part['passed']}/{part['total']}"),
    ("mark_matrices", lambda n_max, i_max: mark_matrices(n_max),
     lambda part, n_max, i_max: "mark matrices lower-triangular with nonzero diagonal, "
     f"n <= {n_max}: {part['passed']}/{part['total']}"),
    # no line when k = (n_max - 1) // 2 is below 1
    ("leading_terms", lambda n_max, i_max: leading_terms(n_max),
     lambda part, n_max, i_max: f"leading terms at n={n_max}, k={(n_max - 1) // 2}, degree "
     f"sum <= {n_max // 2}: {part['passed']}/{part['checked']}" if n_max >= 3 else None),
)


def failed(report: dict) -> bool:
    """Whether any family of a sweep's report failed a case."""
    return any(report[key]["failures"] for key, _, _ in FAMILIES)


def render(report: dict) -> list[str]:
    """The text lines of a sweep's report: each family's line, then the verdict."""
    n_max, i_max = report["n_max"], report["i_max"]
    lines = (line(report[key], n_max, i_max) for key, _, line in FAMILIES)
    return [text for text in lines if text is not None] + [report["final"]]


def sweep(n_max: int, i_max: int | None = None) -> dict:
    """The families of `FAMILIES` up to n_max, with powers up to i_max
    (default n_max + 3), and the verdict line under "final"."""
    if n_max < 1:
        raise ValueError(f"need n-max >= 1, got {n_max}")
    if i_max is None:
        i_max = n_max + 3
    if i_max < 0:
        raise ValueError(f"need i-max >= 0, got {i_max}")
    # the triangularity family stops at the first n whose mark matrix is
    # over the mark-cell cap; refuse that n before any family runs.  The
    # loop ends at the first refused n, so it is bounded by the cap.
    for n in range(1, n_max + 1):
        _check_cells(n)
    report = {"n_max": n_max, "i_max": i_max}
    report.update((key, run(n_max, i_max)) for key, run, _ in FAMILIES)
    equal, tri = report["lambda_equalities"], report["mark_matrices"]
    report["final"] = (
        f"{'FAIL' if failed(report) else 'PASS'}: {equal['passed']}/{equal['total']} "
        f"lambda equalities, {tri['passed']}/{tri['total']} mark matrices triangular"
    )
    return report
