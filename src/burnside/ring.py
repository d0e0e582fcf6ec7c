"""The one copy of the λ-ring code shared by both models of the Burnside
ring, the block-tuple subring of S_n (`schur.SchurElement`, over the
ambient n) and the Burnside ring of an explicit group
(`engine.BurnsideElement`, over the group): the sparse integer-combination
arithmetic (`Combination`) and the paper's two routes to λ^i(S),

- the recursion λ^i = Σ_{j<i} (-1)^(i-j+1) λ^j σ^(i-j) (`recursion_step`);
- the closed signed sum λ^i(S) = Σ_{mu ⊢ i} (-1)^(i + len mu) ·
  multinomial(mu) · [P_mu(S)] (`closed_terms`).

Each model supplies the recursion's products λ^j·σ^k (the engine
multiplies in its basis; the Schur side uses reciprocity), σ^k and
[P_mu(S)].
"""

from __future__ import annotations

import operator

from .partitions import Immutable, TheoremViolation, enumerate_partitions, multinomial


class Combination(Immutable):
    """An immutable integer combination of basis classes over a fixed base.
    Zero coefficients are never stored, so equality compares the base and
    the coefficient map.  A subclass gives the key check (`_key`), the
    product (`_product`) and the base-mismatch message (`_MISMATCH`,
    formatted with the two bases)."""

    __slots__ = ("base", "coeffs")

    def __init__(self, base, coeffs=None):
        """Check every key through `_key` and every coefficient through
        `operator.index`; repeated keys add up and zeros are dropped."""
        clean: dict = {}
        for key, c in (coeffs or {}).items():
            key = self._key(base, key)
            clean[key] = clean.get(key, 0) + operator.index(c)
            if not clean[key]:
                del clean[key]
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "coeffs", clean)

    @classmethod
    def _trusted(cls, base, coeffs: dict):
        """Wrap coefficients whose keys are already basis keys over `base`
        and whose values are ints, such as an arithmetic result; only the
        zero coefficients are dropped."""
        element = object.__new__(cls)
        object.__setattr__(element, "base", base)
        object.__setattr__(element, "coeffs", {k: c for k, c in coeffs.items() if c})
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


def closed_terms(i: int):
    """The terms of the closed sum for λ^i, i >= 1: (mu, (-1)^(i + len mu)
    · multinomial(mu)) for every partition mu of i, in descending
    lexicographic order."""
    for mu in enumerate_partitions(i):
        c = multinomial(mu)
        yield mu, -c if (i + len(mu)) % 2 else c


def recursion_step(i: int, size: int, product, where: str) -> Combination:
    """λ^i, i >= 1, by the recursion, from product(j, k) = λ^j·σ^k (j < i,
    j + k = i); how the product is formed is the model's own.  The caller
    has checked that λ^j vanishes for size < j < i, so only j <= size is
    summed: O(size) products for any i.  λ^i must vanish above size too;
    that is a theorem, so a nonzero value raises TheoremViolation naming
    the power and `where` it was computed."""
    out: dict = {}
    for j in range(min(i, size + 1)):
        sign = 1 if (i - j) % 2 else -1
        term = product(j, i - j)
        for key, c in term.coeffs.items():
            out[key] = out.get(key, 0) + sign * c
    value = term._trusted(term.base, out)
    if i > size and not value.is_zero():
        raise TheoremViolation(f"lambda^{i} {where} must vanish, got {value.render()}")
    return value
