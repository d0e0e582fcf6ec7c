"""Mark homomorphism for the ordered-set-partition basis.

The mark of a G-set at a conjugacy class is its number of fixed points
under any representative.  Conjugacy classes of S_n are cycle types, i.e.
partitions of n, so the marks of an element form an integer vector indexed
by partitions of n.  Marks are ring homomorphisms to Z componentwise, and
the matrix of basis marks is triangular with nonzero diagonal, which makes
the whole vector a complete invariant.

A tuple of disjoint blocks covering {1..n} is fixed by a permutation g
exactly when every cycle of g stays inside a single block, so the fixed
points of [P_mu] at cycle type nu are counted by distributing the cycles
of nu over the ordered blocks with block r receiving total length mu_r.
That is the coefficient of x^mu in the power sum p_nu, an entry of the
power-sum-to-monomial transition matrix (Macdonald, Symmetric Functions
and Hall Polynomials, I.6).  Two counters compute it, one per access
pattern, and the tests check that they agree:

- `_placements` counts one cell: it assigns the cycles to blocks of given
  remaining capacities, so mu's capacities prune every state.
  `fixed_points` (the checked public entry) and the mark columns that
  `marks_of` sums call it, with each basis key's sorted block tuple built
  once.  These need one cell or a few columns.
- `mark_rows` counts whole rows: the cycles of nu grouped by block,
  i.e. the set partitions of the cycles, counted by their multiset mu of
  group sums; each count times prod_k m_k(mu)!, the ways groups of equal
  sum fill the blocks of that size, is the cell at mu.  A row holds only
  its nonzero cells: most cells of the matrix are zero, and a
  cell-by-cell count spends most of its time finding that out.  Routing
  the single-cell paths through whole rows instead costs them far more
  than it saves, so each access pattern keeps its counter.

`_groupings` walks the trie of ascending cycle tuples depth first.  A
child appends one cycle at least as long as the last, and each node's
counts come from its parent's by one step of `_join` (the new cycle opens
a group or joins one), so every prefix is extended exactly once, and
cycle types that share their smallest cycles share that work.  Only the
counts on the current path are alive, not those of every prefix.  The
walk meets the same grouping and cycle length at many prefixes, so the
moves of each pair (`_moves`) are cached for the walk and dropped when
it ends: the cache about halves the walk's time, and it, not the path,
sets the walk's memory, about 10 MB at n = 24 and 46 MB at n = 29.
Each row comes with its index in `marks_vector_order(n)`, which its
columns index too: `mark_matrix` (`marks --n`) places each row at that
index, and `verify_injectivity` judges the stored cells against it.
Both raise `CapExceeded` when the dense matrix would have more than
`TABLE_CAP` cells (p(n)^2 > 30M, so n >= 30), before any partition of n
is enumerated.

The order of the partitions of n and the mark column of each basis key
that `marks_of` meets are kept for the life of the process, in one table
per ambient (`_columns`) that `marks_of` looks up once per call and then
reads as a plain dict (see `burnside.clear_caches`), so a mark vector is
a sum of kept columns, each added from its first nonzero mark on.
Mark rows are not cached: at n = 18 the matrix has 148,225 cells, and the
callers that need it ask for it once.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial, prod

from . import partitions
from .partitions import CapExceeded, Immutable, Partition, enumerate_partitions, slot_setters


@lru_cache(maxsize=None)
def _placements(cycles: tuple, caps: tuple) -> int:
    """Ways to assign distinguishable cycles (lengths `cycles`, processed in
    the given order) to distinguishable blocks whose remaining capacities
    form the multiset `caps`, filling every block exactly.

    Blocks with equal remaining capacity admit the same completions, so the
    state keeps capacities sorted and weights each choice by the number of
    blocks sharing the chosen capacity.  Exhausted blocks are dropped.
    """
    if not cycles:
        return 1
    length, rest = cycles[0], cycles[1:]
    total = 0
    for cap in set(caps):
        if cap >= length:
            reduced = list(caps)
            reduced.remove(cap)
            if cap > length:
                reduced.append(cap - length)
            total += caps.count(cap) * _placements(rest, tuple(sorted(reduced)))
    return total


def fixed_points(mu, nu) -> int:
    """Fixed points of the basis G-set of mu under a permutation of cycle
    type nu; both arguments must be partitions of the same n, and a weight
    mismatch raises ValueError."""
    mu, nu = Partition(mu), Partition(nu)
    if mu.weight != nu.weight:
        raise ValueError(
            f"cycle type {nu} and block sizes {mu} have different weights"
        )
    return _placements(tuple(nu), tuple(sorted(mu)))


@lru_cache(maxsize=None)
def marks_vector_order(n: int) -> tuple[Partition, ...]:
    """Row/column index order used throughout: descending lexicographic."""
    return tuple(enumerate_partitions(n))


def _check_cells(n: int) -> None:
    """Refuse a mark matrix of more than `TABLE_CAP` cells (read
    when called), p(n)^2, before any partition of n is enumerated.  p(0),
    p(1), ... come from Euler's pentagonal recurrence and stop at n or at
    the first k whose p(k)^2 is over the cap, since p never decreases: the
    check is bounded by the cap, whatever n is."""
    counts = [1]
    while len(counts) <= n:
        k, total, j = len(counts), 0, 1
        while j * (3 * j - 1) // 2 <= k:
            sign = 1 if j % 2 else -1
            for g in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2):
                if g <= k:
                    total += sign * counts[k - g]
            j += 1
        if total * total > partitions.TABLE_CAP:
            raise CapExceeded("mark-cells", partitions.TABLE_CAP, f"the mark matrix at n={n}")
        counts.append(total)


@lru_cache(maxsize=None)
def _moves(sums: tuple, c: int) -> tuple:
    """The groupings one more cycle, of length c, makes of one whose groups
    have the ascending sums `sums`: ((ascending sums after, choices), ...).
    The cycle either opens a group of its own, in one way, or joins one of
    the groups of some sum s, with as many choices as groups of sum s.  No
    two moves give the same sums.  Cached for one walk (`_groupings`)."""
    moves = [(tuple(sorted(sums + (c,))), 1)]
    for s in set(sums):
        joined = list(sums)
        joined.remove(s)
        joined.append(s + c)
        moves.append((tuple(sorted(joined)), sums.count(s)))
    return tuple(moves)


def _join(counts: dict, c: int) -> dict:
    """One more cycle, of length c: set partitions of distinguishable cycles
    counted by their group sums, {ascending tuple of group sums: count},
    extended by c through each grouping's `_moves`."""
    grown: dict = {}
    for sums, count in counts.items():
        for key, choices in _moves(sums, c):
            grown[key] = grown.get(key, 0) + choices * count
    return grown


def _groupings(n: int):
    """(ascending cycle tuple, grouping counts) for every cycle type of n.

    Walks the trie of ascending cycle tuples depth first: a child appends
    one cycle c at least the last one, and only if the remainder is 0 or
    at least c, so every prefix is extended exactly once, and only the
    counts of the prefixes on the current path are alive.  The cache of
    `_moves` is emptied when the walk ends."""
    path = []

    def walk(counts, low, rest):
        if not rest:
            yield tuple(path), counts
            return
        for c in [*range(low, rest // 2 + 1), rest]:
            path.append(c)
            yield from walk(_join(counts, c), c, rest - c)
            path.pop()

    try:
        yield from walk({(): 1}, 1, n)
    finally:
        _moves.cache_clear()


def mark_rows(n: int):
    """Rows of the matrix of basis marks: (row, {column: mark}) for every
    cycle type of n, holding only the nonzero cells.  Rows and columns
    both index `marks_vector_order(n)`; the rows come in depth-first order
    of their ascending cycle tuples, not in that order.

    A grouping of the cycles of nu with group sums mu fills the blocks of
    [P_mu] in prod_k m_k(mu)! ways.  Raises CapExceeded when the dense
    matrix would have more than `TABLE_CAP` cells, before any work."""
    _check_cells(n)
    # ascending tuple of block sizes -> (column, ways to fill equal blocks)
    columns = {tuple(reversed(mu)): (c, prod(factorial(mu.count(p)) for p in set(mu)))
               for c, mu in enumerate(marks_vector_order(n))}

    def row(counts):
        cells = {}
        for sums, count in counts.items():
            c, ways = columns[sums]
            cells[c] = count * ways
        return cells

    return ((columns[cycles][0], row(counts)) for cycles, counts in _groupings(n))


def mark_matrix(n: int) -> list[list[int]]:
    """Matrix of basis marks: rows are cycle types nu, columns basis keys mu,
    both in descending lexicographic order; entry = fixed_points(mu, nu).

    Lower-triangular: a cycle of length bigger than every block cannot be
    placed, and more precisely the entry vanishes whenever nu > mu.

    The dense rendering of `mark_rows`, each row placed at its index."""
    rows = mark_rows(n)
    size = len(marks_vector_order(n))
    matrix: list = [None] * size
    for r, cells in rows:
        row = [0] * size
        for c, value in cells.items():
            row[c] = value
        matrix[r] = row
    return matrix


def _mark_column(mu: Partition) -> tuple:
    """Marks of the basis class of mu at the cycle types of its weight, in
    `marks_vector_order`, as (start, the marks from index start on), where
    start is the index of the first nonzero mark.  Every mark is counted
    by `_placements`, and start is read off the counted column, never
    assumed from the matrix's triangularity.  Uncached: `marks_of` keeps
    each column in its ambient's table (`_columns`)."""
    blocks = tuple(sorted(mu))
    column = [_placements(tuple(nu), blocks) for nu in marks_vector_order(sum(mu))]
    start = next((k for k, m in enumerate(column) if m), len(column))
    return start, tuple(column[start:])


class MarkVector(Immutable):
    """Marks of one element at every cycle type, in descending lex order.

    Immutable; equal when the ambient, the cycle types and the values are."""

    __slots__ = ("ambient", "cycle_types", "values")

    def __init__(self, ambient: int, cycle_types: tuple, values: tuple):
        _set_ambient(self, ambient)
        _set_cycle_types(self, cycle_types)
        _set_values(self, values)

    def __reduce__(self):
        return type(self), self._fields()

    def _fields(self) -> tuple:
        return (self.ambient, self.cycle_types, self.values)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return (f"MarkVector(ambient={self.ambient!r}, "
                f"cycle_types={self.cycle_types!r}, values={self.values!r})")

    def render(self) -> str:
        lines = []
        for nu, v in zip(self.cycle_types, self.values):
            body = ",".join(str(p) for p in nu)
            lines.append(f"({body}): {v}")
        return "\n".join(lines)


_set_ambient, _set_cycle_types, _set_values = slot_setters(MarkVector)


@lru_cache(maxsize=None)
def _columns(n: int) -> tuple:
    """The mark table of ambient n: (`marks_vector_order(n)`, {basis key:
    its `_mark_column`}), the columns filled by `marks_of` as it meets
    their keys."""
    return marks_vector_order(n), {}


def marks_of(x: SchurElement) -> MarkVector:
    """Mark vector of an element, extended linearly from the basis: the
    sum of the mark columns of its keys, each times its coefficient,
    added into the slice from the column's first nonzero mark on
    (`_mark_column`).  The ambient's table (`_columns`) is looked up once
    per call; a column is counted the first time its key is met.

    Each mark is added in place by an index loop over the slice.  On the
    benchmark's small elements (n <= 8, 2.5 terms on average) that is
    35-45% faster on Python 3.10 to 3.13 than a comprehension over the
    slice, which pays a slice copy, a zip and a slice assignment per
    term.  On σ and λ at n = 16 it is still faster on 3.11 to 3.13 and
    18% slower on 3.10; at n = 20, for elements of hundreds of terms, it
    is 5-10% slower on 3.11 to 3.13 and 40% slower on 3.10
    (`BENCH_ambient_tables.json`)."""
    n = x.base
    order, columns = _columns(n)
    values = [0] * len(order)
    for mu, c in x.coeffs.items():
        column = columns.get(mu)
        if column is None:
            column = columns[mu] = _mark_column(mu)
        k, tail = column  # k starts at the first nonzero mark
        for m in tail:
            values[k] += c * m
            k += 1
    return MarkVector(n, order, tuple(values))


def verify_injectivity(n: int) -> dict:
    """Check the structural facts that make the mark vector injective at
    ambient n: entries above the diagonal vanish and diagonal entries do not.
    Every cell of the matrix is judged from `mark_rows(n)`: a cell absent
    from a row is zero, so the stored cells above the diagonal and each
    diagonal cell are the ones that can fail.  Returns a report with every
    offending cell in (row, column) order (empty failures means pass).
    """
    rows = mark_rows(n)
    order = marks_vector_order(n)
    diagonal = [0] * len(order)
    found: list = [()] * len(order)
    for r, cells in rows:
        nu = order[r]
        diagonal[r] = cells.get(r, 0)
        failures = [
            {
                "cycle_type": list(nu),
                "basis_key": list(order[c]),
                "value": cells[c],
                "reason": "nonzero entry above the diagonal",
            }
            for c in sorted(cells) if c > r and cells[c] != 0
        ]
        if diagonal[r] == 0:
            failures.insert(0, {
                "cycle_type": list(nu),
                "basis_key": list(nu),
                "value": 0,
                "reason": "zero diagonal entry",
            })
        found[r] = failures
    failures = [failure for row in found for failure in row]
    return {
        "n": n,
        "triangular": all(f["reason"] != "nonzero entry above the diagonal" for f in failures),
        "diagonal_nonzero": all(d != 0 for d in diagonal),
        "diagonal": diagonal,
        "cells_checked": len(order) * len(order),
        "failures": failures,
    }
