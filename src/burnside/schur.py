"""Arithmetic in the subring of the Burnside ring of S_n spanned by the
classes [P_mu] of ordered-set-partition actions, mu running over the
partitions of n.

A basis class [P_mu] is the S_n-set of tuples of pairwise disjoint subsets
of {1..n} whose j-th block has size mu_j.  Elements of the ring are integer
linear combinations of basis classes with a fixed ambient n; basis keys are
always partitions of n (shorter partitions are padded on construction).

Products of basis classes expand over contingency tables: the orbits of
P_mu x P_nu are classified by the matrix of block-intersection sizes, so
[P_mu]*[P_nu] is the sum of [P_gamma] over all nonnegative integer matrices
with row sums mu and column sums nu, where gamma collects the nonzero
entries.  Rows and columns are labelled by tuple position, so each matrix
counts exactly one orbit and no symmetry quotient is needed.

The matrices are counted, not listed.  A product needs only the multiset
of nonzero entries of each matrix, and the matrices that complete the
rows so far depend only on the multiset of column sums they leave.  So
the count runs one loop over the rows (`_tables`), with the sorted
remaining column sums as the state and the codes of the entries so far
counted under it.  [1^n]*[1^n], for example, has n! matrices but only n
states.  Three choices keep that loop small:

- One orientation.  A transposed matrix has the same entries, so
  `_pair_product` hands `_basis_product` as rows the lex-larger
  partition, whose largest part is at least the other's.  Both orders
  of a pair then share one cached product, and the columns are the
  smaller capacities, which keep the layers small.
- Shared first-row fills.  The fills of a row, grouped by the capacities
  they leave and the row's nonzero entries, depend only on the row total
  and the sorted column sums, not on the other rows.  `_first_row`
  computes them once, for every state and row that meet them.
- Fills by capacity class.  Columns of equal capacity are
  interchangeable, so a row is filled class by class, not column by
  column: m columns of capacity c take an amount through a multiset of
  k <= m entries in 1..c, in m!/((m-k)! prod mult!) arrangements
  (`_class_fills`, cached per capacity, class size and amount).  A row of
  2 over a hundred columns of 1 has one option, not 4950 fills.

Inside both kernels a multiset of parts kappa is keyed by its code, the
integer prod_r p_(kappa_r), where p_m is the m-th prime (`ring._encode`,
over the prime table it shares with the engine).  Every integer >= 1
factors into primes in exactly one way, so the code is a bijection from
the finite multisets of positive parts onto the positive integers, and
the code of a union of multisets is the product of their codes: joining
two keys is one multiplication of ints, where a tuple key needs a sort
and a new tuple.  `_tables` keys the tables by the code of their
entries, and `_basis_product` decodes each key once into a `Partition`;
the recursion (`_lambda_codes`, `_lambda_times`) keys its values by
codes, and `recursive_lambda` decodes its answer once.  Both go through
`_decoded`, so every public value keeps its `Partition` keys.

The λ recursion counts no table.  Its products λ^j([n])·σ^k([n]) expand
σ^k([n]) = sum b_nu [P_nu] and multiply each [P_nu] by λ^j([n]) through
Frobenius reciprocity (`_lambda_times`):

    [P_nu]·λ^j([n]) = sum over j_1 + ... + j_l = j with j_r <= nu_r of
                      [P_sort(kappa_1 ∪ ... ∪ kappa_l)] · prod_r c_r(kappa_r),

where c_r(kappa_r) runs over the terms of λ^(j_r)([nu_r]) at ambient nu_r.
Four steps prove it:

1. P_nu = S_n/S_nu for the Young subgroup S_nu, and [G/H]·X =
   Ind_H^G Res_H X in the Burnside ring.
2. Restriction to S_nu is a ring map that commutes with every σ^k, so by
   the recursion it commutes with every λ^j.
3. Restricted to S_nu, [n] is the disjoint union of the blocks [nu_r],
   and λ_t of a disjoint union is the product of the λ_t's (σ_t is, and
   λ_t·σ_{-t} = 1), so λ^j([n]) restricts to the sum of the external
   products of the λ^(j_r)([nu_r]) with j_1 + ... + j_l = j.
4. The external product of the S_(nu_r)/S_(kappa_r) is S_nu/prod_r
   S_(kappa_r), and inducing it to S_n gives P_sort(kappa_1 ∪ ... ∪
   kappa_l): inducing concatenates the keys.

A term with j_r > nu_r is zero, since λ^(j_r)([nu_r]) vanishes, so only
j_r <= nu_r is summed and no smaller ambient runs its vanishing checks.
Every nu other than (n) has all its parts below n, and [P_(n)] is the
unit, whose product is λ^j([n]) itself (j < i).  So the recursion at n
reads σ at n and λ at the smaller ambients, and no contingency table.
The tables still give `schur_mul`, hence `*`, `mul` and
`leading_term_check`.  `ring.recursion_step` sums the recursion's code
maps as it does any model's, and its message for a power that fails to
vanish decodes them (`_decoded`).

The public constructor `SchurElement(n, coeffs)` reads n through
`operator.index`, checks n >= 1 and hands the rest to
`ring.Combination`'s one checked constructor, which passes every key
through `SchurElement._key` (a partition of n) and every coefficient
through `operator.index`; `basis_element`, `degree` and
`leading_term_check` check their arguments too.  The key check, not
the element, is memoized per (n, key) (`_basis_key`).  The saving needs
repeated keys: a pass of the benchmark's library session checks 58
distinct keys about 16,600 times, while a `mul` job from the command
line checks its two keys once each (`BENCH_checked_keys.json`).  Only
a tuple or `Partition` whose parts are all exact ints is looked up,
tested as one set of types at C speed:
(2.0, 1) equals (2, 1) and hashes alike, so a memo keyed by equality
would accept the float part the check refuses.  A list, a float, bool or
int-subclass part goes through the uncached body
(`_basis_key.__wrapped__`).  A refused key raises and is not stored, so
it is refused on every call.  The elements the
library builds from keys it already holds (sums, differences, negations,
integer multiples, `schur_mul`, `sigma` and both lambdas) skip those
checks through `SchurElement._trusted`, which only drops zero
coefficients, because equality compares the coefficient maps.  The
refusal of every attribute set and delete lives in
`partitions.Immutable`.  Every `TheoremViolation` check stays.

The additive arithmetic of elements, their cardinality, the λ recursion
and the closed signed sum are shared with the engine in `ring.py`; this
module gives the point count of a basis class (`_key_size`, that is
`partitions._points`), the product, the recursion's products by
reciprocity, the codes of their keys, σ and the padding of the closed
sum's keys to ambient n.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from itertools import groupby
from math import comb

from .partitions import (
    Partition, TheoremViolation, _points, alpha, enumerate_partitions, pad,
)
from .ring import Combination, _decode, _encode, closed_terms, recursion_step


class SchurElement(Combination):
    """An integer linear combination of basis classes for a fixed ambient n.

    Immutable; zero coefficients are never stored, so equality is plain
    comparison of the ambient and the coefficient map (`ring.Combination`);
    the product is `schur_mul`.
    """

    __slots__ = ()
    _MISMATCH = "ambient mismatch: n={} vs n={}"
    _key_size = staticmethod(_points)

    def __init__(self, ambient: int, coeffs=None):
        ambient = operator.index(ambient)
        if ambient < 1:
            raise ValueError(f"ambient must be >= 1, got {ambient}")
        super().__init__(ambient, coeffs)

    @staticmethod
    def _key(ambient: int, key) -> Partition:
        # only a tuple of exact ints is looked up: (2.0, 1) equals (2, 1)
        # and hashes alike, and the memo would answer it
        if type(key) in _KEY_TYPES and _INT_PARTS.issuperset(map(type, key)):
            return _basis_key(ambient, key)
        return _basis_key.__wrapped__(ambient, key)

    @property
    def ambient(self) -> int:
        return self.base

    @classmethod
    def one(cls, n: int) -> SchurElement:
        """The ring identity [P_(n)], the class of the one-point set."""
        return cls(n, {(n,): 1})

    def terms(self) -> list[tuple[Partition, int]]:
        """(key, coefficient) pairs in descending lexicographic key order."""
        return [(mu, self.coeffs[mu]) for mu in sorted(self.coeffs, reverse=True)]

    def _product(self, other):
        return schur_mul(self, other)

    def render(self) -> str:
        """Text form: signed terms in descending lex key order, e.g.
        ``+1*[P(2,2)] -1*[P(2,1,1)] @ n=4``.  The zero element renders as ``0``.
        """
        if self.is_zero():
            return "0"
        bits = []
        for mu, c in self.terms():
            sign = "+" if c > 0 else "-"
            body = ",".join(str(p) for p in mu)
            bits.append(f"{sign}{abs(c)}*[P({body})]")
        return " ".join(bits) + f" @ n={self.ambient}"

    def to_json(self) -> dict:
        return {
            "n": self.ambient,
            "terms": [
                {"partition": list(mu), "coefficient": c} for mu, c in self.terms()
            ],
        }

    def __repr__(self):
        return f"<SchurElement {self.render()}>"


_KEY_TYPES = frozenset((tuple, Partition))
_INT_PARTS = frozenset((int,))


@lru_cache(maxsize=None)
def _basis_key(ambient: int, key) -> Partition:
    """`key` checked as a partition of `ambient`: the one check of a
    caller's basis key, memoized for exact-int keys only (see the module
    docstring and `SchurElement._key`)."""
    key = Partition(key)
    if key.weight != ambient:
        raise ValueError(f"basis key {key} is not a partition of {ambient}")
    return key


def basis_element(mu, n: int) -> SchurElement:
    """The basis class of mu padded to ambient n."""
    mu = Partition(mu)
    if mu.weight > n:
        raise ValueError(f"partition weight {mu.weight} exceeds ambient {n}")
    return SchurElement(n, {pad(mu, n): 1})


@lru_cache(maxsize=None)
def _class_fills(c: int, m: int, amount: int) -> tuple:
    """The ways one row puts `amount` into m columns of capacity c, one
    option per multiset of at most m entries in 1..c that sums to `amount`:
    (the entries, descending; the capacities they leave; the number of
    arrangements).  k entries with multiplicities mult fall on the m
    columns in m!/((m-k)! prod mult!) ways, chosen here value by value as a
    product of binomials; a column that takes e keeps c - e (nothing when
    e = c), and each of the m - k others keeps c."""
    partial = [((), amount, 0, 1)]  # (entries, amount left, k, arrangements)
    for e in range(c, 0, -1):
        grown = []
        for entries, rest, k, ways in partial:
            for mult in range(min(rest // e, m - k) + 1):
                # what is left must fit in the other columns at entries below e
                if rest - e * mult <= (e - 1) * (m - k - mult):
                    grown.append((entries + (e,) * mult, rest - e * mult, k + mult,
                                  ways * comb(m - k, mult)))
        partial = grown
    return tuple(
        (entries, (c,) * (m - k) + tuple(c - e for e in entries if e < c), ways)
        for entries, _, k, ways in partial
    )


@lru_cache(maxsize=None)
def _first_row(total: int, cols: tuple) -> dict:
    """The fills of a row with sum `total` over the columns of capacities
    `cols` (sorted ascending), grouped: {(capacities left, sorted; the row's
    nonzero entries, sorted): number of fills}.  The amount is split over
    the capacity classes of `cols`, and each class takes one of its
    `_class_fills` options."""
    classes = [(c, len(tuple(run))) for c, run in groupby(cols)]
    room = [sum(c * m for c, m in classes[j:]) for j in range(len(classes) + 1)]
    partial = [(total, (), (), 1)]  # (amount left, entries, left, fills)
    for j, (c, m) in enumerate(classes):
        grown = []
        for rest, entries, left, ways in partial:
            # what is left must fit in the classes after this one
            for amount in range(max(0, rest - room[j + 1]), min(rest, c * m) + 1):
                for more, kept, arrangements in _class_fills(c, m, amount):
                    grown.append((rest - amount, entries + more, left + kept,
                                  ways * arrangements))
        partial = grown
    groups: dict[tuple, int] = {}
    for _, entries, left, ways in partial:
        key = (tuple(sorted(left)), tuple(sorted(entries)))
        groups[key] = groups.get(key, 0) + ways
    return groups


def _tables(rows: tuple, cols: tuple) -> dict:
    """Count the nonnegative integer matrices with row sums `rows` and column
    sums `cols` (a sorted tuple of positive capacities) by the multiset of
    their nonzero entries: {code of the entries: number of matrices}.

    One loop over the rows holds one layer, {capacities left: {code of the
    entries so far: number of partial matrices}}.  Each row expands every
    state through its grouped fills (`_first_row`), whose entries join the
    codes so far by one multiplication, so every matrix is counted exactly
    once; the rows use up the columns, so the answer is the layer at the
    exhausted state ().
    """
    layer = {cols: {1: 1}}
    for total in rows:
        grown: dict[tuple, dict[int, int]] = {}
        for left, counts in layer.items():
            for (kept, entries), ways in _first_row(total, left).items():
                head = _encode(entries)
                out = grown.setdefault(kept, {})
                for code, count in counts.items():
                    key = head * code
                    out[key] = out.get(key, 0) + ways * count
        layer = grown
    return layer[()]


def _decoded(codes: dict) -> dict:
    """{partition: coefficient} for a map {code of a partition: coefficient}."""
    return {_decode(code): c for code, c in codes.items()}


@lru_cache(maxsize=None)
def _pair_product(mu: tuple, nu: tuple) -> dict:
    """`_basis_product` of the pair in its one order, the lex-larger operand
    as rows, so that one cache entry serves both orders of a pair and the
    columns are the smaller capacities, which keep the layers of `_tables`
    small.  Cached itself, so a product met again is one C-level lookup
    from `schur_mul`; both orders hold the same dict."""
    if nu > mu:
        mu, nu = nu, mu
    return _basis_product(mu, nu)


@lru_cache(maxsize=None)
def _basis_product(mu: tuple, nu: tuple) -> dict:
    """Expand [P_mu]*[P_nu] (mu, nu partitions of the same n) as
    {gamma: multiplicity}: the number of contingency tables with row sums mu
    and column sums nu whose nonzero entries sort to gamma, counted by
    `_tables` over the rows of mu.  A transposed table has the same
    entries, so either order gives the same answer; the library calls it
    through `_pair_product`, which fixes the order."""
    return _decoded(_tables(mu, tuple(sorted(nu))))


def schur_mul(a: SchurElement, b: SchurElement) -> SchurElement:
    """Bilinear extension of the contingency-table basis product."""
    a._check(b)
    out: dict[Partition, int] = {}
    for mu, ca in a.coeffs.items():
        for nu, cb in b.coeffs.items():
            c = ca * cb
            for gamma, mult in _pair_product(mu, nu).items():
                out[gamma] = out.get(gamma, 0) + c * mult
    return SchurElement._trusted(a.base, out)


def _check_power(i: int, n: int) -> tuple[int, int]:
    """(i, n) read through `operator.index`, so a float is refused before
    anything is cached, and checked in one message, the one the CLI's
    `lambda` and `sigma` print.  The caches of `sigma` and both lambdas
    are typed: (2.0, 3) equals (2, 3), and an untyped cache would answer
    it."""
    i, n = operator.index(i), operator.index(n)
    if n < 1 or i < 0:
        raise ValueError(f"need n >= 1 and i >= 0, got n={n}, i={i}")
    return i, n


@lru_cache(maxsize=None)
def _profiles(i: int, max_parts: int) -> dict:
    """{multiplicity profile, sorted descending: number of partitions of i
    with at most `max_parts` parts that have it}."""
    counts: dict[tuple, int] = {}
    for mu in enumerate_partitions(i, max_parts=max_parts):
        key = tuple(sorted(alpha(mu), reverse=True))
        counts[key] = counts.get(key, 0) + 1
    return {Partition._trusted(key): c for key, c in counts.items()}


@lru_cache(maxsize=None, typed=True)
def sigma(i: int, n: int) -> SchurElement:
    """The class of the i-th symmetric power of {1..n}.

    Equals the sum over partitions mu of i with at most n parts of the basis
    class of the multiplicity profile of mu (sorted into a partition and
    padded to n).  No partition of i has more than i parts, so the profile
    counts (`_profiles`) are read at min(i, n) parts: every n >= i shares
    one enumeration of the partitions of i, and a tall n < i enumerates
    those with at most n parts.  σ^0 is the unit: the one partition of 0
    has the empty profile, which pads to (n).
    """
    i, n = _check_power(i, n)
    counts: dict[Partition, int] = {}
    for profile, c in _profiles(i, min(i, n)).items():
        key = pad(profile, n)
        counts[key] = counts.get(key, 0) + c
    return SchurElement._trusted(n, counts)


@lru_cache(maxsize=None)
def _lambda_times(parts: tuple, j: int) -> dict:
    """[P_parts]·λ^j([n]) as {code: count}, for a partition `parts` of n
    and j <= n, by reciprocity (see the module docstring): j is split as
    j_1 + ... + j_l with j_r <= parts[r], and the terms of
    λ^(j_r)([parts[r]]), read from `_lambda_codes` at the smaller
    ambients, are concatenated by multiplying their codes.  The recursion
    runs over the parts, one level per part, with the remaining parts and
    the remaining power as the cached state; a single part is λ^j at that
    ambient itself."""
    first, rest = parts[0], parts[1:]
    if not rest:
        return _lambda_codes(j, first)
    room = sum(rest)
    out: dict[int, int] = {}
    for head in range(max(0, j - room), min(j, first) + 1):
        tail = _lambda_times(rest, j - head).items()
        for kappa, c in _lambda_codes(head, first).items():
            for eta, d in tail:
                key = kappa * eta
                out[key] = out.get(key, 0) + c * d
    return {key: c for key, c in out.items() if c}


@lru_cache(maxsize=None)
def _lambda_codes(i: int, n: int) -> dict:
    """λ^i([n]) by the recursion (`ring.recursion_step`) as {code:
    coefficient}, for checked ints i >= 0 and n >= 1; for i > n it checks
    that every l_j with n < j <= i vanishes, in increasing j, and is
    empty.  Each product l_j s_k expands s_k = sum b_nu [P_nu] and
    multiplies every [P_nu] by l_j through reciprocity (`_lambda_times`).

    Each (i, n) is computed on its own: for i <= n the recursion at n reads
    λ only at the smaller ambients, besides λ^0 at n.  Extending l_0, ...,
    l_i per ambient asks `recursive_lambda(20, 20)` for 5,048 `_lambda_times`
    states, not 4,857, and ran it 16% slower (`BENCH_recursion_maps.json`)."""
    if i == 0:
        return {_encode((n,)): 1}

    def product(j, k):
        # sigma is looked up at call time, so a replaced sigma is what is checked
        out: dict[int, int] = {}
        for nu, b in sigma(k, n).coeffs.items():
            for code, c in _lambda_times(nu, j).items():
                out[code] = out.get(code, 0) + b * c
        return out

    def render(codes):
        return SchurElement._trusted(n, _decoded(codes)).render()

    where = f"at n={n}"
    if i <= n:
        return recursion_step(i, n, product, where, render)
    checked = _vanished(n)
    for j in range(checked[0] + 1, i + 1):
        recursion_step(j, n, product, where, render)
        checked[0] = j
    return {}


@lru_cache(maxsize=None)
def _vanished(n: int) -> list[int]:
    """[the largest i such that l_{n+1}, ..., l_i at ambient n have been
    checked to vanish], raised in place by `_lambda_codes`."""
    return [n]


@lru_cache(maxsize=None, typed=True)
def recursive_lambda(i: int, n: int) -> SchurElement:
    """The i-th exterior-power class of {1..n}, computed by the defining
    recursion -(-1)^i l_i = sum_{j<i} (-1)^j l_j s_{i-j} of the structure
    opposite to the symmetric powers (`ring.recursion_step`).

    The recursion rests on σ at n and on λ at the smaller ambients: each
    product l_j s_k expands s_k = sum b_nu [P_nu] and multiplies every
    [P_nu] by l_j through reciprocity (`_lambda_times`), so no contingency
    table is counted.  The closed sum uses neither σ nor a product, so
    `lambda --method both` still compares two independent routes.  The
    recursion (`_lambda_codes`) keys every value by the code of its
    partition, and only this answer is decoded.

    For i > n the recursion must collapse to zero; that is a theorem, so it
    is checked rather than assumed: every l_j with n < j <= i is computed,
    in increasing j, and a nonzero one raises TheoremViolation.
    """
    i, n = _check_power(i, n)
    return SchurElement._trusted(n, _decoded(_lambda_codes(i, n)))


@lru_cache(maxsize=None, typed=True)
def closed_lambda(i: int, n: int) -> SchurElement:
    """The i-th exterior-power class of {1..n} by the closed signed sum
    over the partitions mu of i (`ring.closed_terms`), each term padded
    to a basis key of n.  For i > n it is zero by definition, since P_mu
    of a weight above n is empty: of the two constructions, only
    `recursive_lambda` checks that the powers above n vanish."""
    i, n = _check_power(i, n)
    if i > n:
        return SchurElement.zero(n)
    return SchurElement._trusted(n, {pad(mu, n): c for mu, c in closed_terms(i)})


def degree(mu, n: int, k: int) -> int:
    """Grading of a basis key, defined for 2k < n: the one-point class has
    degree 0, a key containing the part n-j (1 <= j <= k) has degree j, and
    everything else sits in the top bucket k+1."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if 2 * k >= n:
        raise ValueError(f"degree requires 2k < n, got k={k}, n={n}")
    mu = Partition(mu)
    if mu.weight != n:
        raise ValueError(f"{mu} is not a partition of {n}")
    if mu == (n,):
        return 0
    for j in range(1, k + 1):
        if n - j in mu:
            return j
    return k + 1


def leading_term_check(kappa1, kappa2, n: int, k: int) -> dict:
    """Check the graded leading-term property of a basis product.

    Writing each key as its largest part (the padding block) plus a tail,
    the product of two basis classes of degrees m, m' with m+m' <= n/2 must
    contain the concatenation class (the merged tails, repadded) with
    coefficient exactly 1, with every other term of degree < m+m'.
    Returns a report dict; report["ok"] is the verdict.
    """
    kappa1, kappa2 = pad(Partition(kappa1), n), pad(Partition(kappa2), n)
    m1 = degree(kappa1, n, k)
    m2 = degree(kappa2, n, k)
    if m1 + m2 > n // 2:
        raise ValueError(
            f"degree sum {m1}+{m2} is outside the graded regime (> {n // 2})"
        )
    tail1 = Partition(kappa1[1:])
    tail2 = Partition(kappa2[1:])
    concat = pad(Partition(sorted(tail1 + tail2, reverse=True)), n)
    product = _pair_product(tuple(kappa1), tuple(kappa2))
    coefficient = product.get(concat, 0)
    violations = []
    for key, c in product.items():
        if key == concat:
            continue
        d = degree(key, n, k)
        if d >= m1 + m2:
            violations.append(
                {"key": list(key), "coefficient": c, "degree": d}
            )
    violations.sort(key=lambda v: v["key"], reverse=True)
    return {
        "kappa1": list(kappa1),
        "kappa2": list(kappa2),
        "degrees": [m1, m2],
        "concatenation": list(concat),
        "coefficient": coefficient,
        "violations": violations,
        "ok": coefficient == 1 and not violations,
    }


def cardinality(x: SchurElement) -> int:
    """Underlying point count, extended linearly; a ring homomorphism to Z.
    It is `x.cardinality()` (`ring.Combination`): counted on the first
    call and kept on x, so a cached answer is sized once."""
    return x.cardinality()
