"""Integer partitions: enumeration, multiplicity profiles, multinomials,
padding.

Partitions are weakly decreasing tuples of positive integers; between
partitions of equal weight, tuple comparison is lexicographic order (see
`Partition`).  All arithmetic is exact integer arithmetic.

Input from outside the library is checked once, where it enters:
`Partition(...)`, `parse_partition` and `pad` on anything that is not
already a `Partition` reject a non-integer part (read through
`operator.index`, so 2.7 is refused, not truncated), a part below 1 and
an increase.  Sizes are read the same way: the i and `max_parts` of
`enumerate_partitions` and the n of `pad`.  The partitions the library
builds itself are valid by construction, so they
skip the check through `Partition._trusted`: `enumerate_partitions`
builds every one of its results that way, and `pad` trusts a `Partition`
it is given, since inserting the positive part n - i and sorting keeps
it a partition.  The Schur side builds dozens of keys per query, and
checking each again cost a quarter of its time.

The package's exceptions and resource caps live here too, at the bottom
of the import graph, so that the Schur side can raise, catch and check
them without loading the engine.  Each cap is read from this module when
it is checked.
"""

from __future__ import annotations

import operator
import os
from functools import lru_cache
from math import factorial, prod


class TheoremViolation(Exception):
    """A computed value contradicts a theorem the package relies on.  That
    can only be an implementation bug; unlike ``assert``, the check stays
    in force under ``python -O``."""


class CapExceeded(Exception):
    """A construction would exceed a configured resource cap."""

    def __init__(self, kind: str, cap: int, construction: str):
        self.kind = kind
        self.cap = cap
        self.construction = construction
        super().__init__(f"{kind} cap {cap} exceeded while building {construction}")

    def __reduce__(self):
        return type(self), (self.kind, self.cap, self.construction)


DEFAULT_GROUP_CAP = 10080
GROUP_CAP_ENV = "BURNSIDE_GROUP_CAP"
DEFAULT_POINT_CAP = 200_000
# a verified G-set stores |G|·|X| table entries (8 bytes each); the mark
# matrix at n, p(n)^2 cells, is held to the same cap
TABLE_CAP = 30_000_000


def group_cap_default() -> int:
    raw = os.environ.get(GROUP_CAP_ENV)
    if raw is None:
        return DEFAULT_GROUP_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"{GROUP_CAP_ENV} must be an integer, got {raw!r}") from None
    if cap < 1:
        raise ValueError(f"{GROUP_CAP_ENV} must be positive, got {cap}")
    return cap


class GroupFileError(ValueError):
    """Malformed group input file; carries the offending line number."""

    def __init__(self, line_number: int, message: str):
        self.line_number = line_number
        self.message = message
        super().__init__(f"line {line_number}: {message}")

    def __reduce__(self):
        return type(self), (self.line_number, self.message)


class Immutable:
    """Once built, an instance refuses every attribute set and delete, so
    its constructors write through its slots' own setters, the one way to
    write them (`slot_setters`; `ring.Combination`, `marks.MarkVector`,
    `engine.Permutation`)."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


def slot_setters(cls) -> tuple:
    """The setters of cls's own slots, in `__slots__` order: the member
    descriptors' ``__set__``, which `Immutable.__setattr__` does not reach.
    A write through one costs about a third of ``object.__setattr__`` with
    the slot's name."""
    return tuple(vars(cls)[name].__set__ for name in cls.__slots__)


class Partition(tuple):
    """A weakly decreasing tuple of positive integers.

    The empty partition is allowed (the unique partition of 0).  Tuple
    comparison coincides with lexicographic comparison of partitions of
    equal weight, since no partition is a proper prefix of another one of
    the same weight.
    """

    __slots__ = ()

    def __new__(cls, parts=()):
        parts = tuple(map(operator.index, parts))
        for j, p in enumerate(parts):
            if p < 1:
                raise ValueError(f"partition parts must be >= 1, got {p}")
            if j and parts[j - 1] < p:
                raise ValueError(f"partition parts must be weakly decreasing: {parts}")
        return super().__new__(cls, parts)

    @classmethod
    def _trusted(cls, parts) -> Partition:
        """Wrap parts already known to be positive and weakly decreasing,
        such as a partition the library enumerated; nothing is checked."""
        return tuple.__new__(cls, parts)

    @property
    def weight(self) -> int:
        return sum(self)

    def __repr__(self):
        return f"Partition({tuple(self)})"


def enumerate_partitions(i: int, max_parts: int | None = None) -> list[Partition]:
    """All partitions of i, in strictly descending lexicographic order.

    The first element is (i), the last (1,...,1).  For i = 0 the list holds
    the single empty partition.  With `max_parts` set, only the partitions
    with at most that many parts are generated (directly, not by filtering),
    in the same order; the list is empty when max_parts = 0 < i.  Both
    sizes are read through `operator.index`, so 3.5 is refused.
    """
    i = operator.index(i)
    if i < 0:
        raise ValueError(f"cannot partition a negative integer: {i}")
    max_parts = i if max_parts is None else operator.index(max_parts)
    if max_parts < 0:
        raise ValueError(f"max_parts must be >= 0, got {max_parts}")
    if i == 0:
        return [Partition()]
    if max_parts == 0:
        return []
    out = []
    cur = [i]
    while True:
        out.append(Partition._trusted(cur))
        # find the rightmost part that can be decremented with the remainder
        # (the decremented unit plus every later part) still fitting into the
        # parts left free, each at most the decremented value
        rest = 1
        j = len(cur) - 1
        while j >= 0 and rest > (cur[j] - 1) * (max_parts - j - 1):
            rest += cur[j]
            j -= 1
        if j < 0:
            return out
        cur[j] -= 1
        del cur[j + 1:]
        # greedy refill gives the lexicographically largest tail
        while rest > 0:
            nxt = min(cur[-1], rest)
            cur.append(nxt)
            rest -= nxt


def alpha(mu: Partition) -> tuple[int, ...]:
    """Multiplicity profile: run lengths of equal parts, largest part first.

    The entries sum to the length of mu, so the empty partition's profile
    is empty.
    """
    counts = []
    last = None
    for part in mu:
        if part == last:
            counts[-1] += 1
        else:
            counts.append(1)
            last = part
    return tuple(counts)


def multinomial(mu: Partition) -> int:
    """The exact integer l! / (a_1! ... a_k!) where l = len(mu), a = alpha(mu):
    the number of orderings of mu's parts, 1 for the empty partition."""
    num = factorial(len(mu))
    den = prod(factorial(a) for a in alpha(mu))
    if num % den:
        raise TheoremViolation(
            f"multinomial of {format_partition(mu)}: {den} does not divide {num}"
        )
    return num // den


@lru_cache(maxsize=None)
def _points(mu: Partition) -> int:
    """The size of P_mu, the tuples of disjoint blocks of sizes mu covering
    {1..|mu|}: the multinomial |mu|! / prod mu_j!.  Shared by the Schur
    side's cardinality (`SchurElement._key_size`) and the engine's size
    checks.  The largest part, mu_1, cancels first: |mu|! / mu_1! is the
    product of mu_1 + 1 .. |mu|, so the large part that pads a small
    partition to n forms no n!."""
    if not mu:
        return 1
    return prod(range(mu[0] + 1, sum(mu) + 1)) // prod(map(factorial, mu[1:]))


def pad(mu: Partition, n: int) -> Partition:
    """Extend a partition of i <= n to a partition of n by inserting n-i.

    Returns mu unchanged when i = n.  A `Partition` is trusted; any other
    input is checked first, and n is read through `operator.index`.
    """
    if not isinstance(mu, Partition):
        mu = Partition(mu)
    n = operator.index(n)
    i = sum(mu)
    if i > n:
        raise ValueError(f"cannot pad a partition of {i} to weight {n}")
    if i == n:
        return mu
    return Partition._trusted(sorted(mu + (n - i,), reverse=True))


def format_partition(mu) -> str:
    """Render as comma-separated parts in brackets, e.g. [3,1,1]."""
    return "[" + ",".join(str(p) for p in mu) + "]"


def parse_partition(text: str) -> Partition:
    """Parse the bracket format accepted on the command line, e.g. [3,1,1]."""
    s = text.strip()
    if s.startswith("[") and s.endswith("]"):
        s = s[1:-1]
    s = s.strip()
    if not s:
        return Partition()
    try:
        parts = tuple(int(tok) for tok in s.split(","))
    except ValueError:
        raise ValueError(f"cannot parse partition {text!r}") from None
    return Partition(parts)
