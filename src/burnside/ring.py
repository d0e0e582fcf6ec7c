"""The one copy of the λ-ring code shared by both models of the Burnside
ring, the block-tuple subring of S_n (`schur.SchurElement`, over the
ambient n) and the Burnside ring of an explicit group
(`engine.BurnsideElement`, over the group): the sparse integer-combination
arithmetic (`Combination`) and the paper's two routes to λ^i(S),

- the recursion λ^i = Σ_{j<i} (-1)^(i-j+1) λ^j σ^(i-j) (`recursion_step`);
- the closed signed sum λ^i(S) = Σ_{mu ⊢ i} (-1)^(i + len mu) ·
  multinomial(mu) · [P_mu(S)] (`closed_terms`).

The step sums coefficient maps and names no element type.  Each model
gives the maps of its products λ^j·σ^k (the engine multiplies in its
basis; the Schur side uses reciprocity over codes) and wraps the map the
step returns; it also gives σ^k and [P_mu(S)].

Both models also key finite multisets by products of primes, so they
share one table of primes here (`_PRIMES`, extended by `_primes`): the
Schur side codes a multiset of parts (`_encode`, `_decode`), and the
engine a point of a symmetric power or a block-tuple set.
"""

from __future__ import annotations

import operator
from itertools import compress
from math import isqrt, log, prod

from .partitions import (
    Immutable, Partition, TheoremViolation, enumerate_partitions, multinomial, slot_setters,
)


class Combination(Immutable):
    """An immutable integer combination of basis classes over a fixed base.
    Zero coefficients are never stored, so equality compares the base and
    the coefficient map.  A subclass gives the record of a base
    (`_record`), the key check (`_key`), the number of points of a basis
    class (`_key_size`), the product (`_product`) and the base-mismatch
    message (`_MISMATCH`, formatted with the two bases).

    The constructor is the one checked constructor of both models.
    `_record(base)` is one C-level call that gives the base as stored and
    its memo of accepted keys, {key: checked key}: the Schur side's is a
    typed cache over the ambient, whose miss checks it, and the engine's
    is a pair its group makes.  A key whose type is exactly a tuple or a
    `Partition` and whose parts are all exact ints is read from the memo;
    only a miss calls `_key`, and only then is the key stored.  Every
    other key, such as a list or a key with a float, bool or int-subclass
    part, is checked by `_key` on every call: (2.0, 1) equals (2, 1) and
    hashes alike, so the memo would answer it.  A refused key raises and
    is never stored.

    The element's point count is computed on the first `cardinality` call
    and kept in the `_size` slot (None until then), so an answer served
    from a cache is sized once; equality, hashing, repr and pickling
    ignore the slot, and a copy recomputes it."""

    __slots__ = ("base", "coeffs", "_size")

    def __init__(self, base, coeffs=None):
        """Read the base's record, check every key (through the memo, or
        `_key`) and every coefficient through `operator.index`; repeated
        keys add up and zeros are dropped."""
        try:
            record = self._record(base)
        except TypeError:
            # an unhashable base cannot be looked up in the Schur side's
            # typed cache: its uncached check refuses it, outside this
            # handler, with its own message
            record = None
        base, memo = record or self._record.__wrapped__(base)
        clean: dict = {}
        check, index, get, known = self._key, operator.index, clean.get, memo.get
        for key, c in (coeffs or {}).items():
            if type(key) in _KEY_TYPES and _INT_PARTS.issuperset(map(type, key)):
                checked = known(key)
                if checked is None:
                    checked = memo[key] = check(base, key)
            else:
                checked = check(base, key)
            c = get(checked, 0) + index(c)
            if c:
                clean[checked] = c
            else:
                clean.pop(checked, None)
        _set_base(self, base)
        _set_coeffs(self, clean)
        _set_size(self, None)

    @classmethod
    def _trusted(cls, base, coeffs: dict):
        """Wrap coefficients whose keys are already basis keys over `base`
        and whose values are ints, such as an arithmetic result; only the
        zero coefficients are dropped."""
        element = object.__new__(cls)
        _set_base(element, base)
        _set_coeffs(element, {k: c for k, c in coeffs.items() if c})
        _set_size(element, None)
        return element

    @classmethod
    def zero(cls, base):
        return cls(base)

    def __reduce__(self):
        # pickle and copy rebuild through _trusted, as the default would
        # write the slots and be refused
        return type(self)._trusted, (self.base, self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def cardinality(self) -> int:
        """The point count, extended linearly: the sum of each coefficient
        times its class's `_key_size`; a ring homomorphism to Z."""
        size = self._size
        if size is None:
            coeffs = self.coeffs
            size = sum(map(operator.mul, coeffs.values(), map(self._key_size, coeffs)))
            _set_size(self, size)
        return size

    def _check(self, other):
        if not isinstance(other, type(self)):
            raise TypeError(f"expected {type(self).__name__}, got {type(other).__name__}")
        if self.base != other.base:
            raise ValueError(self._MISMATCH.format(self.base, other.base))

    def __eq__(self, other):
        return (
            isinstance(other, type(self))
            and self.base == other.base
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.base, frozenset(self.coeffs.items())))

    def __add__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out[key] = out.get(key, 0) + c
        return self._trusted(self.base, out)

    def __neg__(self):
        return self._trusted(self.base, {k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return self._trusted(self.base, {k: c * other for k, c in self.coeffs.items()})
        if isinstance(other, type(self)):
            return self._product(other)
        return NotImplemented

    # reached for other * self only when other is not of self's type
    __rmul__ = __mul__


# Both constructors and `cardinality` write through the slots' own
# setters, which `_trusted` calls behind every arithmetic result.
_set_base, _set_coeffs, _set_size = slot_setters(Combination)
# the key types the memo of accepted keys is read for, tested at C speed
_KEY_TYPES = frozenset((tuple, Partition))
_INT_PARTS = frozenset((int,))


def closed_terms(i: int):
    """The terms of the closed sum for λ^i, i >= 0: (mu, (-1)^(i + len mu)
    · multinomial(mu)) for every partition mu of i, in descending
    lexicographic order.  λ^0 is its one term, (∅, 1): P_∅ is the
    one-point set, the unit."""
    for mu in enumerate_partitions(i):
        c = multinomial(mu)
        yield mu, -c if (i + len(mu)) % 2 else c


def recursion_step(i: int, size: int, product, where: str, render) -> dict:
    """The coefficient map of λ^i, i >= 1, by the recursion, from the maps
    product(j, k) of λ^j·σ^k (j < i, j + k = i), each added into one sum
    once; zeros are dropped once, at the end.  The caller has checked that
    λ^j vanishes for size < j < i, so only j <= size is summed: O(size)
    products for any i.  λ^i must vanish above size too; that is a theorem,
    so a nonzero value raises TheoremViolation naming the power, `where` it
    was computed and the value as render(map) writes it."""
    out: dict = {}
    for j in range(min(i, size + 1)):
        sign = 1 if (i - j) % 2 else -1
        for key, c in product(j, i - j).items():
            out[key] = out.get(key, 0) + sign * c
    out = {key: c for key, c in out.items() if c}
    if i > size and out:
        raise TheoremViolation(f"lambda^{i} {where} must vanish, got {render(out)}")
    return out


# _PRIMES[m] is the m-th prime; index 0 holds 1 and is never read.  The
# Schur side codes a part m by it, and the engine a labelled point index
# (`engine._coded_rule`).  `_primes` extends the table on demand, in place,
# so every holder of the list sees one table.
_PRIMES = [1, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71]


def _tabulate_primes(top: int) -> None:
    """Extend `_PRIMES` to at least its top-th prime and at least twice
    its length, by a sieve up to Rosser's bound p_m < m(ln m + ln ln m),
    which holds for m >= 6."""
    m = max(top, 2 * (len(_PRIMES) - 1))
    bound = int(m * (log(m) + log(log(m)))) + 1
    sieve = bytearray([1]) * (bound + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, isqrt(bound) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, bound + 1, p)))
    _PRIMES[1:] = compress(range(bound + 1), sieve)


def _primes(top: int) -> list[int]:
    """`_PRIMES`, first extended if it lacks its top-th prime."""
    if top >= len(_PRIMES):
        _tabulate_primes(top)
    return _PRIMES


def _encode(parts) -> int:
    """The code of a multiset of positive parts: the product of the
    parts[r]-th primes, 1 for no parts."""
    if parts:
        _primes(max(parts))
    return prod(map(_PRIMES.__getitem__, parts))


def _decode(code: int) -> Partition:
    """The multiset of parts whose code is `code`, as a partition.  The code
    is divided by the tabled primes in increasing order; every code the
    library makes factors down to 1 that way, so one that does not (below
    1, or with a prime factor past the table) raises TheoremViolation."""
    parts = []
    rest = code
    m = 1
    while rest > 1 and m < len(_PRIMES):
        q, r = divmod(rest, _PRIMES[m])
        while not r:
            parts.append(m)
            rest = q
            q, r = divmod(rest, _PRIMES[m])
        m += 1
    if rest != 1:
        raise TheoremViolation(f"{code} is not the code of a multiset of tabled parts")
    parts.reverse()
    return Partition._trusted(parts)
