"""Brute-force G-set engine.

Everything here is computed from first principles on explicit objects:
groups are full element sets, actions are verified point maps, orbits come
from a plain loop over integer rows, and isomorphism classes of transitive
G-sets are identified by conjugacy search over stabilizers.  A group's
closure, a subgroup's conjugates and the graph of a homomorphism given on
generators come from one breadth-first walk, `_orbit`.  The point is to
have an oracle whose only inputs are the definitions, so that the closed
formulas elsewhere in the package can be checked against it.

The hot paths run on integers.  A group keeps `Permutation` objects only
at its edges (parsing, printing, the public API and its sorted `elements`
tuple); closure works on image tuples, and after it an element is its
index, its position in the sorted element tuple, found from its image
tuple through one dictionary.  Per generator s the group tabulates, once,
the index of s·g (left multiples) and of s·g·s⁻¹ (conjugation) for every
element g, so conjugacy classes of subgroups are orbits of frozensets of
element indices.  A right factor h is held as the itemgetter of its
zero-based images (`_getter`), which builds the image tuple of g·h from
g's in C; the products of one element with a list of right factors are
one `map` of those getters and one of the index lookups
(`PermGroup._products`), and the closure calls the generators' getters
on each element it reaches.  A G-set's action is given once, as rows:
row k lists the image index of every point under the element with index
k.  Every construction computes its rows from its parents' rows by index
arithmetic; the verified ones take a fixed number of C-level `map` passes
per element, not a Python step per point:

- a natural set reads each permutation's images;
- a symmetric power and a block-tuple set code each point by a product
  of primes, one per (coordinate, label) pair (`_coded_rule`): an
  element's row maps the parent's row once per label through that
  label's primes, multiplies the columns and looks the products up among
  the points' codes;
- a coset space reads the index of g·rep for every representative rep
  through the products, and maps it to its coset;
- an induced set does the same for the transversal, and chains the
  parent's rows, each shifted to its coset's block once per group
  element;
- unions, products and restrictions shift, combine or reindex their
  parents' rows; a restriction along a homomorphism reads it on image
  tuples, from its closed graph, like every product after closure.

No group element acts on a point object.  A pointwise action function
given by a caller is adapted onto the same rows.

Every G-set reads its action through one rule, a `Rows`.  Verified G-sets
(natural sets, symmetric powers, block tuples, coset spaces, induced sets
and every set built from a caller's action) evaluate the row of every
element once, |G|·|X| entries, and the stored rows become their rule, so
every later row is a list lookup.  Verification checks that every row
has one entry per point and every entry indexes a point, that the
identity's row fixes every point, and that T_{s·g} = T_s ∘ T_g for every
generator s and every element g.  Products, disjoint unions and
restrictions are not verified, because their axioms follow from their
verified parents: once their size is checked by arithmetic they are built
through the plain `GSet` constructor, and stay lazy: a row is computed
from the parents' rows when asked for.  Storing the rows of a product of
coset spaces would take |G|·|X|·|Y| entries to answer a few orbit and
stabilizer queries, so each composite names a point's stabilizer from
its parents' (`Rows.stabilizer`).  Products of validated
permutations skip the bijection check, which only outside input needs.

A verified construction is kept on its parent (`_kept`): a group keeps
its natural set and its coset spaces, a G-set its symmetric powers and
block-tuple sets, each built and verified on first use and alive for as
long as its parent, so every λ^i over one set shares one σ^1..σ^i.  A
G-set keeps its decomposition too, from the first `decompose` on.  The
module caches no G-set itself, only the named groups (`symmetric_group`,
...), which `burnside.clear_caches` drops.  A kept set is sized against
the caps again on every use.  Induced sets, composites and sets from a caller's
action are not kept: each call builds them, and verifies a caller's
action, again.

Scale is deliberately small (desk scale): group orders, point counts and
table sizes are capped, and every cap violation raises a structured error
naming the offending construction instead of truncating silently.  The
caps live in `partitions`, and each is read from there where it is
checked; of the CLI commands, only `oracle` and `indres` load this
module, and it loads `partitions` and `ring` but not the Schur side:
the size of P_mu is `partitions._points`, and `burnside_to_schur`
imports `SchurElement` when it runs.  One size check, `_check_points`,
refuses the points and then the |G|·|X| table entries before every
verified build; the composites store no table, so it refuses them by
their point count alone and they are exempt from the table cap.

`BurnsideElement`'s additive arithmetic, cardinality, the λ recursion and
the closed signed sum are shared with the Schur side in `ring.py`; this
module gives the orbit size of a class (`_key_size`), the product
(`burnside_mul`), the symmetric powers and the P_mu sets.
"""

from __future__ import annotations

import itertools
import operator
import re
from functools import cached_property, lru_cache

from . import partitions
from .partitions import (CapExceeded, GroupFileError, Immutable, Partition, _points,
                         enumerate_partitions, pad)
from .ring import Combination, _primes, closed_terms, recursion_step


def _check_points(count: int, label: str, order: int | None = None) -> None:
    """Refuse a G-set of more than DEFAULT_POINT_CAP points, from its size
    alone, before any point is listed; given the group order of a verified
    build, then refuse more than TABLE_CAP stored table entries."""
    if count > partitions.DEFAULT_POINT_CAP:
        raise CapExceeded("point-count", partitions.DEFAULT_POINT_CAP, label)
    if order is not None and order * count > partitions.TABLE_CAP:
        raise CapExceeded("table-entries", partitions.TABLE_CAP, label)


def _keep(parent, key, build) -> GSet:
    """The verified construction `key` over parent (a group or a G-set):
    made by build() on first use and kept in parent's `_kept` for as long
    as parent lives, so it is built and verified once.  A kept set is
    sized against the caps again on every use, so a cap lowered since it
    was built refuses it with the error a fresh build would raise."""
    gset = parent._kept.get(key)
    if gset is None:
        gset = parent._kept[key] = build()
    else:
        _check_points(gset.size, gset.label, gset.group.order)
    return gset


class Permutation(Immutable):
    """A permutation of {1..n}, stored as the tuple of images of 1..n.

    Products compose right-to-left: (a*b)(x) = a(b(x)).
    """

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(map(operator.index, images))
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"not a bijection of 1..{n}: {images}")
        _set_images(self, images)

    @classmethod
    def _trusted(cls, images: tuple) -> Permutation:
        """Wrap an image tuple already known to be a bijection, such as a
        product or inverse of validated permutations."""
        perm = object.__new__(cls)
        _set_images(perm, images)
        return perm

    def __reduce__(self):
        return type(self)._trusted, (self.images,)

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, n: int) -> Permutation:
        return cls(range(1, n + 1))

    @classmethod
    def from_cycles(cls, cycles, degree: int) -> Permutation:
        points = [p for cycle in cycles for p in cycle]
        if len(points) != len(set(points)):
            raise ValueError(f"cycles are not disjoint: {cycles}")
        images = list(range(1, degree + 1))
        for cycle in cycles:
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                if not 1 <= a <= degree:
                    raise ValueError(f"point {a} outside 1..{degree}")
                images[a - 1] = b
        return cls(images)

    def __call__(self, point: int) -> int:
        return self.images[point - 1]

    def __mul__(self, other: Permutation) -> Permutation:
        im, om = self.images, other.images
        if len(im) != len(om):
            raise ValueError(f"degree mismatch: {len(im)} vs {len(om)}")
        return Permutation._trusted(tuple([im[b - 1] for b in om]))

    def inverse(self) -> Permutation:
        inv = [0] * self.degree
        for k, v in enumerate(self.images):
            inv[v - 1] = k + 1
        return Permutation._trusted(tuple(inv))

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycles including fixed points, each starting at its
        least element, ordered by least element."""
        seen = [False] * self.degree
        out = []
        for start in range(1, self.degree + 1):
            if seen[start - 1]:
                continue
            cyc = [start]
            seen[start - 1] = True
            p = self(start)
            while p != start:
                cyc.append(p)
                seen[p - 1] = True
                p = self(p)
            out.append(tuple(cyc))
        return out

    def cycle_type(self) -> Partition:
        return Partition(sorted((len(c) for c in self.cycles()), reverse=True))

    def __str__(self):
        moved = [c for c in self.cycles() if len(c) > 1]
        if not moved:
            return "()"
        return "".join("(" + " ".join(str(p) for p in c) + ")" for c in moved)

    def __repr__(self):
        return f"<Permutation {self} deg={self.degree}>"

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __lt__(self, other):
        return self.images < other.images


(_set_images,) = partitions.slot_setters(Permutation)

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def _parse_cycles(text: str) -> list[tuple[int, ...]]:
    """The cycles of disjoint-cycle notation like ``(1 2)(3 4)``, each of
    integer points >= 1 without a repeat; ``()`` has none."""
    stripped = text.strip()
    cycles = []
    consumed = _CYCLE_RE.sub("", stripped)
    if consumed.strip():
        raise ValueError(f"unparsable permutation text: {text!r}")
    for body in _CYCLE_RE.findall(stripped):
        entries = body.replace(",", " ").split()
        if not entries:
            continue
        try:
            cyc = tuple(int(e) for e in entries)
        except ValueError:
            raise ValueError(f"non-integer point in cycle ({body})") from None
        if any(p < 1 for p in cyc):
            raise ValueError(f"points must be >= 1 in cycle ({body})")
        if len(set(cyc)) != len(cyc):
            raise ValueError(f"repeated point in cycle ({body})")
        cycles.append(cyc)
    return cycles


def _permutation(cycles, degree: int | None) -> Permutation:
    """The permutation of parsed cycles; degree defaults to the largest
    point mentioned."""
    largest = max((p for c in cycles for p in c), default=1)
    if degree is None:
        degree = largest
    elif largest > degree:
        raise ValueError(f"point {largest} exceeds declared degree {degree}")
    return Permutation.from_cycles(cycles, degree)


def parse_permutation(text: str, degree: int | None = None) -> Permutation:
    """Parse disjoint-cycle notation like ``(1 2)(3 4)``; ``()`` is the
    identity.  Degree defaults to the largest point mentioned."""
    return _permutation(_parse_cycles(text), degree)


def parse_group_file(text: str) -> tuple[list[Permutation], int]:
    """Parse the group input format: one permutation per line in cycle
    notation, optional ``degree N`` header, blank lines and ``#`` comments
    ignored.  Returns (generators, degree).  Errors carry line numbers.

    Each line's cycles are read once.  The degree, the header's or else
    the largest point, is fixed before any permutation is built; the
    natural set has that many points, so a degree over DEFAULT_POINT_CAP
    is refused there by the natural set's own check (`_check_points`
    under `_natural_label`)."""
    degree = None
    lines: list[tuple[int, list]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if body.lower().startswith("degree"):
            if lines or degree is not None:
                raise GroupFileError(lineno, "degree header must come first")
            parts = body.split()
            if (len(parts) != 2 or parts[0].lower() != "degree"
                    or not parts[1].isdecimal() or int(parts[1]) < 1):
                raise GroupFileError(lineno, f"bad degree header: {body!r}")
            degree = int(parts[1])
            continue
        try:
            lines.append((lineno, _parse_cycles(body)))
        except ValueError as exc:
            raise GroupFileError(lineno, str(exc)) from None
    if degree is None:
        degree = max((p for _, cycles in lines for c in cycles for p in c), default=1)
    _check_points(degree, _natural_label(degree))
    gens = []
    for lineno, cycles in lines:
        try:
            gens.append(_permutation(cycles, degree))
        except ValueError as exc:
            raise GroupFileError(lineno, str(exc)) from None
    return gens, degree


class PermGroup:
    """An explicit finite permutation group: the full sorted element tuple,
    plus caches for the expensive classification queries (canonical
    stabilizer fingerprints, pairwise class products) and the verified
    G-sets built over it (its natural set and its coset spaces, `_kept`).

    An element is addressed by its index in `elements`, found from its
    image tuple; the classification queries work on indices.

    Construct through group_closure or the named constructors; the direct
    constructor trusts its input to be closed, and to be generated by
    `generators` when they are given.
    """

    def __init__(self, degree: int, elements, generators=None):
        self.degree = degree
        distinct = {g.images: g for g in elements}
        self.elements: tuple[Permutation, ...] = tuple(
            distinct[images] for images in sorted(distinct)
        )
        if not self.elements:
            raise ValueError("a group needs at least the identity")
        for g in self.elements:
            if g.degree != degree:
                raise ValueError(f"element degree {g.degree} != group degree {degree}")
        self.identity = Permutation.identity(degree)
        # image tuple -> element index
        self._by_images = {g.images: k for k, g in enumerate(self.elements)}
        if self.identity.images not in self._by_images:
            raise ValueError("element set lacks the identity")
        self._gens = tuple(generators) if generators is not None else None
        self._key_cache: dict[frozenset, tuple[int, ...]] = {}
        self._kept: dict = {}  # "natural" or a coset space's key -> GSet
        self._class_product_cache: dict[tuple, dict] = {}

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, g) -> bool:
        return isinstance(g, Permutation) and g.images in self._by_images

    def __iter__(self):
        return iter(self.elements)

    def __eq__(self, other):
        return (
            isinstance(other, PermGroup)
            and self.degree == other.degree
            and self.elements == other.elements
        )

    def __hash__(self):
        return hash((self.degree, self.elements))

    def __reduce__(self):
        # the caches hold G-sets whose actions are local functions, and
        # are refilled on demand, so a copy starts without them
        return type(self), (self.degree, self.elements, self._gens)

    def __repr__(self):
        return f"<PermGroup degree={self.degree} order={self.order}>"

    def index_of(self, g: Permutation) -> int:
        return self._by_images[g.images]

    def generators(self) -> tuple[Permutation, ...]:
        """The generators the group was closed from; for a group built by
        the direct constructor without them, a greedy sweep in element
        order that keeps an element whenever it is not generated by those
        already kept."""
        if self._gens is None:
            self._gens = tuple(_sweep(self.elements, self.identity)[0])
        return self._gens

    @cached_property
    def left_multiples(self) -> list[tuple[int, list[int]]]:
        """For each generator s, its element index and the index of s·g for
        every element g in order; |generators|·|G| lookups, made once."""
        getters = [_getter(g) for g in self.elements]
        return [
            (self._by_images[s.images], list(self._products(s, getters)))
            for s in self.generators()
        ]

    @cached_property
    def conjugations(self) -> list[list[int]]:
        """For each generator s, the index of s·g·s⁻¹ for every element g
        in order: each s·g of `left_multiples`, times s⁻¹ on the right
        through its getter; |generators|·|G| lookups, made once."""
        elements, by_images = self.elements, self._by_images
        tables = []
        for si, left in self.left_multiples:
            right = _getter(elements[si].inverse())
            tables.append([by_images[right(elements[sg].images)] for sg in left])
        return tables

    def canonical_key(self, subgroup_elements) -> tuple[int, ...]:
        """Conjugation-invariant fingerprint of a subgroup: the lexicographic
        minimum, over all conjugates, of the sorted element-index tuple."""
        by_images = self._by_images
        return self._canonical_key(frozenset([by_images[h.images] for h in subgroup_elements]))

    def _canonical_key(self, members: frozenset) -> tuple[int, ...]:
        """`canonical_key` of the subgroup with the given element indices.

        The conjugates are found as the orbit of the index set under the
        generators' conjugation tables (`_orbit`), which is its whole
        conjugacy class because the generators generate the group.  That
        costs about (number of conjugates)·|generators|·|H| lookups instead
        of |G|·|H| products.  The key is cached for every conjugate.
        """
        hit = self._key_cache.get(members)
        if hit is not None:
            return hit
        conjugates = _orbit([members], [
            lambda conj, table=table.__getitem__: frozenset(map(table, conj))
            for table in self.conjugations
        ])
        best = min(tuple(sorted(conj)) for conj in conjugates)
        for conj in conjugates:
            self._key_cache[conj] = best
        return best

    def _is_class_key(self, key: tuple) -> bool:
        """Whether key is the canonical key of a subgroup: strictly
        increasing element indices of a set that its own greedy generators
        close to, least over its conjugates."""
        if not key or any(type(i) is not int or not 0 <= i < self.order for i in key):
            return False
        if list(key) != sorted(set(key)):
            return False
        members = [self.elements[i] for i in key]
        if _sweep(members, self.identity)[1] != {g.images for g in members}:
            return False
        return self._canonical_key(frozenset(key)) == key

    def _products(self, g: Permutation, getters):
        """The index of g·h for each h, given as its `_getter`, in order, as
        an iterator: g·h sends x to g(h(x)), so its image tuple is g's
        image tuple read at h's zero-based images, which h's getter builds
        in C."""
        call = operator.methodcaller("__call__", g.images)
        return map(self._by_images.__getitem__, map(call, getters))

    def _left_cosets(self, members) -> tuple[list[tuple[int, int]], list]:
        """Split the group into the left cosets g·H of the subgroup H with
        the given members, sweeping the elements in order: each element
        whose coset is new becomes the next transversal element g_j, so g_j
        is the least element of its coset, and every element g_j·h_k is
        recorded as the pair (j, k).  Returns the pair of every element
        index, and the transversal."""
        products = self._products
        getters = [_getter(m) for m in members]
        split: list = [None] * self.order
        reps = []
        for gi, g in enumerate(self.elements):
            if split[gi] is not None:
                continue
            j = len(reps)
            reps.append(g)
            for k, x in enumerate(products(g, getters)):
                split[x] = (j, k)
        return split, reps

    def coset_space(self, key: tuple[int, ...]) -> GSet:
        """The transitive G-set G/H for the subgroup with the given element
        indices; the canonical representative of its isomorphism class.
        Its points are the cosets as sets of element indices, in order of
        their least elements.  Kept on the group (`_kept`)."""
        key = tuple(key)
        elements, products = self.elements, self._products

        def build():
            split, reps = self._left_cosets([elements[i] for i in key])
            coset_of = [j for j, _ in split]
            cosets: list[list[int]] = [[] for _ in reps]
            for x, j in enumerate(coset_of):
                cosets[j].append(x)
            points = [frozenset(coset) for coset in cosets]
            getters = [_getter(g) for g in reps]

            def row(gset, k):
                return list(map(coset_of.__getitem__, products(elements[k], getters)))

            return GSet.from_point_action(
                self, points, Rows(row), label=f"coset space G/H, |H|={len(key)}"
            )

        return _keep(self, key, build)

    def _block_stabilizer(self, sizes) -> list[int]:
        """Indices of the elements preserving each consecutive block of the
        given sizes: each point carries its block's label, and an element
        is kept iff it sends every point to one with the same label."""
        labels = [b for b, size in enumerate(sizes) for _ in range(size)]
        label_of = (None,) + tuple(labels)  # label_of[p] is point p's label
        return [
            k
            for k, g in enumerate(self.elements)
            if list(map(label_of.__getitem__, g.images)) == labels
        ]

    @cached_property
    def young_keys(self) -> dict[Partition, tuple[int, ...]]:
        """Canonical keys of the block stabilizers Y_mu (elements preserving
        each consecutive block of sizes mu_j), for every mu of weight n.
        Only meaningful when this group is the full symmetric group."""
        return {
            mu: self._canonical_key(frozenset(self._block_stabilizer(mu)))
            for mu in enumerate_partitions(self.degree)
        }

    @cached_property
    def young_classes(self) -> dict[tuple[int, ...], Partition]:
        """The inverse of `young_keys`: the partition mu of each block
        stabilizer class, keyed by its canonical key."""
        return {key: mu for mu, key in self.young_keys.items()}

    def is_full_symmetric(self) -> bool:
        """Whether the order is degree!: the order is divided by 2, 3, ...,
        degree in turn, so degree! is never formed and a small group of a
        large degree is told apart within a few divisions."""
        rest = self.order
        for k in range(2, self.degree + 1):
            if rest % k:
                return False
            rest //= k
        return rest == 1


def _getter(g: Permutation) -> operator.itemgetter:
    """g as a right factor: the getter of g's zero-based images, which reads
    another element's image tuple at them, so that _getter(g)(h.images) is
    the image tuple of h·g.  An itemgetter of one index returns a scalar,
    and the one permutation of degree 1 is the identity, so at degree 1 the
    getter copies the whole tuple."""
    if g.degree < 2:
        return operator.itemgetter(slice(None))
    return operator.itemgetter(*[p - 1 for p in g.images])


def _orbit(seed, steps, cap: tuple[int, Exception] | None = None,
           reached: set | None = None) -> list:
    """Everything the steps reach from the seed, each item once, seed first,
    in breadth-first order; the list of items is its own queue.  Items join
    `reached` (a new set, or one that walks share) and are not walked
    again, though the seed always is.  With cap = (limit, error), the error
    is raised once reached would pass the limit."""
    if reached is None:
        reached = set()
    items = list(seed)
    reached.update(items)
    for item in items:
        for step in steps:
            new = step(item)
            if new not in reached:
                if cap is not None and len(reached) >= cap[0]:
                    raise cap[1]
                reached.add(new)
                items.append(new)
    return items


def _sweep(elements, identity: Permutation) -> tuple[list[Permutation], set]:
    """A greedy sweep in the given order that keeps an element whenever it
    is not generated by those already kept: the kept elements, and the
    image tuples of the group they generate, closed by right
    multiplication (`_orbit`) in one set."""
    gens: list[Permutation] = []
    known = {identity.images}
    for g in elements:
        if g.images not in known:
            gens.append(g)
            _orbit(list(known), [_getter(s) for s in gens], reached=known)
    return gens, known


def group_closure(generators, degree: int | None = None) -> PermGroup:
    """Close a generator list into an explicit PermGroup.  Its elements
    take order·degree image entries, so the closure fails with a
    structured error once the element count would pass the group-order
    cap (`group_cap_default()`) or TABLE_CAP entries, naming whichever
    bound is smaller (the group-order cap on a tie).  The closure runs on
    image tuples, and each element is wrapped once."""
    generators = list(generators)
    if degree is None:
        if not generators:
            degree = 1
        else:
            degree = generators[0].degree
    for g in generators:
        if g.degree != degree:
            raise ValueError(
                f"inconsistent generator degrees: {g.degree} vs {degree}"
            )
    construction = f"closure of {len(generators)} generators"
    cap = partitions.group_cap_default()
    error = CapExceeded("group-order", cap, construction)
    if cap * degree > partitions.TABLE_CAP:
        cap = partitions.TABLE_CAP // degree
        error = CapExceeded("table-entries", partitions.TABLE_CAP, construction)
        if not cap:
            # not even the identity fits
            raise error
    images = _orbit([tuple(range(1, degree + 1))], [_getter(s) for s in generators],
                    (cap, error))
    return PermGroup(degree, map(Permutation._trusted, images), generators=generators)


@lru_cache(maxsize=None)
def symmetric_group(n: int) -> PermGroup:
    if n < 1:
        raise ValueError(f"degree must be >= 1, got {n}")
    if n == 1:
        return group_closure([], degree=1)
    gens = [parse_permutation("(1 2)", n)]
    if n > 2:
        gens.append(Permutation.from_cycles([tuple(range(1, n + 1))], n))
    return group_closure(gens)


@lru_cache(maxsize=None)
def cyclic_group(n: int) -> PermGroup:
    if n < 1:
        raise ValueError(f"degree must be >= 1, got {n}")
    if n == 1:
        return group_closure([], degree=1)
    return group_closure([Permutation.from_cycles([tuple(range(1, n + 1))], n)])


@lru_cache(maxsize=None)
def dihedral_group(n: int) -> PermGroup:
    """Symmetries of the regular n-gon on vertices 1..n, order 2n."""
    if n < 3:
        raise ValueError(f"dihedral group needs n >= 3, got {n}")
    rotation = Permutation.from_cycles([tuple(range(1, n + 1))], n)
    reflection = Permutation([n + 1 - k for k in range(1, n + 1)])
    return group_closure([rotation, reflection])


@lru_cache(maxsize=None)
def young_subgroup(i: int, n: int) -> PermGroup:
    """The subgroup of S_n preserving {1..i} (hence also {i+1..n}) setwise:
    the image of S_i x S_{n-i}."""
    if not 0 <= i <= n:
        raise ValueError(f"need 0 <= i <= n, got i={i}, n={n}")
    whole = symmetric_group(n)
    return PermGroup(n, [whole.elements[k] for k in whole._block_stabilizer((i, n - i))])


class Rows:
    """A G-set action on point indices.

    ``row(gset, k)`` returns the image index of every point of gset, in
    point order, under the group element with index k.  ``stabilizer(gset,
    idx)`` lists, ascending, the indices of the elements fixing point idx.
    Stored rows read one entry per row, a product intersects its factors'
    stabilizers, a disjoint union returns its part's and a restriction
    takes the preimage of its parent's, so no composite computes a row
    for it.  A rule handed to `GSet.from_point_action` names its rows
    alone: verification replaces it by the stored rows.
    """

    __slots__ = ("row", "stabilizer")

    def __init__(self, row, stabilizer=None):
        self.row = row
        self.stabilizer = stabilizer


def _pointwise(act_fn) -> Rows:
    """Adapt an action on point objects, act_fn(g, point) -> point, to rows."""

    def row(gset, k):
        g = gset.group.elements[k]
        points, index = gset.points, gset._index
        out = [index.get(act_fn(g, p), -1) for p in points]
        if -1 in out:
            p = points[out.index(-1)]
            raise ValueError(
                f"action leaves the point set in {gset.label}: "
                f"({g}) sends {p!r} to {act_fn(g, p)!r}"
            )
        return out

    return Rows(row)


class GSet:
    """A finite G-set: an indexed point list plus an action given as rows.

    Row k lists the image index of every point under the group element
    with index k, and the set reads its rows and point stabilizers through its
    one rule (see `Rows`).  ``from_point_action`` caps the points and the
    table entries, adapts a pointwise action function onto rows, then
    verifies the action: it evaluates the row of every element, checks
    the action axioms on them, and makes the stored rows, |G|·|X| entries
    in all, the rule, so ``row``, ``act`` and ``table`` are list
    lookups.  The plain constructor is the trusted path: it takes a
    `Rows` naming both its rows and its stabilizers, and neither caps
    nor verifies.  The composites (products, disjoint unions,
    restrictions) use it after checking their size by arithmetic, take
    their axioms from their verified parents and stay lazy: each row is
    computed from the parents' rows when asked for.  A product's point
    count is the product of its factors', so storing its rows would cost
    more than the few orbit and stabilizer queries it answers.

    The first `decompose` keeps its answer in `_decomposition`, which lives
    and dies with the set, so `burnside.clear_caches` has nothing to name.
    """

    def __init__(self, group: PermGroup, points, rule: Rows, label: str = "gset"):
        self.group = group
        self.points = tuple(points)
        self.label = label
        self._index = {p: k for k, p in enumerate(self.points)}
        if len(self._index) != len(self.points):
            raise ValueError(f"duplicate points in {label}")
        self._rule = rule
        self._kept: dict = {}  # a power i or a Partition mu -> GSet
        self._decomposition = None  # `decompose`'s answer, once asked for

    @classmethod
    def from_point_action(cls, group: PermGroup, points, act_fn, label: str = "gset") -> GSet:
        """Build and verify a G-set from its points and its action, either
        `Rows` or a pointwise act_fn(g, point) -> point.  Points may be a
        generator: at most DEFAULT_POINT_CAP + 1 are drawn from it before
        the cap is enforced."""
        points = list(itertools.islice(points, partitions.DEFAULT_POINT_CAP + 1))
        _check_points(len(points), label, group.order)
        rule = act_fn if isinstance(act_fn, Rows) else _pointwise(act_fn)
        gset = cls(group, points, rule, label=label)
        gset._verify_action()
        return gset

    @property
    def size(self) -> int:
        return len(self.points)

    def index_of(self, point) -> int:
        return self._index[point]

    def row(self, k: int) -> list[int]:
        """Image indices of all points under the element with index k."""
        return self._rule.row(self, k)

    def act(self, g: Permutation, point):
        """Apply one element to one point: an entry of its row (on a
        lazy composite, the whole row is computed)."""
        return self.points[self.row(self.group.index_of(g))[self._index[point]]]

    def table(self, g: Permutation) -> list[int]:
        """Point-index table of one element: its row."""
        return self.row(self.group.index_of(g))

    def _stabilizer_indices(self, idx: int) -> list[int]:
        """Indices, ascending, of the elements fixing point idx (see `Rows`)."""
        return self._rule.stabilizer(self, idx)

    def _verify_action(self):
        """Evaluate the row of every element and check the axioms on the
        rows: each has one entry per point and every entry indexes a
        point, the identity fixes everything, and T_{s·g} = T_s ∘ T_g for
        every generator s and every group element g (the index of s·g is
        read from the group's cached left multiples).  The general axiom
        T_{gh} = T_g ∘ T_h follows by induction on the word length of g in
        the generators."""
        group = self.group
        n = self.size
        points, row, elements = self.points, self._rule.row, group.elements
        tables = [row(self, k) for k in range(group.order)]
        for g, t in zip(elements, tables):
            if len(t) != n:
                raise ValueError(
                    f"action row of ({g}) has {len(t)} entries for {n} points in {self.label}"
                )
            if n and (min(t) < 0 or max(t) >= n):
                k = next(k for k, v in enumerate(t) if not 0 <= v < n)
                raise ValueError(
                    f"action leaves the point set in {self.label}: "
                    f"({g}) sends {points[k]!r} to index {t[k]}"
                )
        ident = tables[group.index_of(group.identity)]
        for k, v in enumerate(ident):
            if v != k:
                raise ValueError(f"identity moves point {points[k]!r} in {self.label}")
        for si, left in group.left_multiples:
            ts = tables[si]
            lookup = ts.__getitem__
            for g, tg, sg in zip(elements, tables, left):
                tsg = tables[sg]
                if tsg != list(map(lookup, tg)):
                    k = next(k for k, x in enumerate(tg) if tsg[k] != ts[x])
                    raise ValueError(
                        f"action axiom fails in {self.label}: ({elements[si]})*({g}) on "
                        f"{points[k]!r}: {points[tsg[k]]!r} != {points[ts[tg[k]]]!r}"
                    )
        self._rule = Rows(lambda gset, k: tables[k],
                          lambda gset, idx: [k for k, t in enumerate(tables) if t[idx] == idx])

    def __repr__(self):
        return f"<GSet {self.label}: {self.size} points, {self.group!r}>"


def _natural_label(degree: int) -> str:
    return f"natural({{1..{degree}}})"


def natural_gset(group: PermGroup) -> GSet:
    """The defining action on {1..degree}; point p has index p - 1.  Kept
    on the group (`_kept`)."""
    elements = group.elements
    return _keep(group, "natural", lambda: GSet.from_point_action(
        group,
        range(1, group.degree + 1),
        Rows(lambda gset, k: list(map((-1).__add__, elements[k].images))),
        label=_natural_label(group.degree),
    ))


def product_gset(s: GSet, t: GSet) -> GSet:
    """Cartesian product with the diagonal action; the pair of point
    indices (a, b) has index a·|t| + b.  Built from the two verified
    component actions, so the axioms hold by construction and are not
    re-verified; the size |s|·|t| is checked before any pair is listed."""
    if s.group is not t.group and s.group != t.group:
        raise ValueError("product requires the same group")
    label = f"({s.label}) x ({t.label})"
    _check_points(s.size * t.size, label)
    points = [(p, q) for p in s.points for q in t.points]
    nt = t.size

    def row(gset, k):
        rt = t.row(k)
        return [a + b for a in [x * nt for x in s.row(k)] for b in rt]

    def stabilizer(gset, idx):
        a, b = divmod(idx, nt)
        fixes_b = set(t._stabilizer_indices(b))
        return [k for k in s._stabilizer_indices(a) if k in fixes_b]

    return GSet(s.group, points, Rows(row, stabilizer), label=label)


def disjoint_union(s: GSet, t: GSet) -> GSet:
    """Disjoint union with componentwise action, t's points after s's;
    axioms inherited from the verified components, so not re-verified."""
    if s.group is not t.group and s.group != t.group:
        raise ValueError("disjoint union requires the same group")
    label = f"({s.label}) + ({t.label})"
    _check_points(s.size + t.size, label)
    points = [(0, p) for p in s.points] + [(1, q) for q in t.points]
    ns = s.size

    def row(gset, k):
        return s.row(k) + [ns + x for x in t.row(k)]

    def stabilizer(gset, idx):
        return s._stabilizer_indices(idx) if idx < ns else t._stabilizer_indices(idx - ns)

    return GSet(s.group, points, Rows(row, stabilizer), label=label)


def _coded_rule(s: GSet, labels: tuple[int, ...], coordinates) -> Rows:
    """The rule of a set of points over s in which coordinates(point) lists
    the point's coordinates, point indices x of s, and coordinate c carries
    the label labels[c], one of ℓ labels.  Each point must be fixed by the
    multiset of its (x, label) pairs.  It is coded by the product of the
    primes p(ℓ·x + label + 1) over its coordinates (`ring._primes`); by
    unique factorisation the code fixes that multiset, so the point.  An
    element's row reads s's row once per label through that label's
    primes, multiplies the columns of coordinates together in C, and looks
    every product up among the points' codes.  The primes, the columns
    and the codes are made by the first row, after the caps."""
    ell = max(labels, default=0) + 1
    tables: list[list[int]] = []  # tables[label][x]: the prime of (x, label)
    columns: list[tuple[int, ...]] = []  # columns[c][idx]: point idx's coordinate c
    code_index: dict[int, int] = {}

    def codes(primes_of, count):
        """Every point's code, with primes_of[label][x] standing for the
        prime of (x, label); 1 for a point of no coordinates."""
        out = None
        for label, column in zip(labels, columns):
            factor = map(primes_of[label].__getitem__, column)
            out = factor if out is None else map(operator.mul, out, factor)
        return itertools.repeat(1, count) if out is None else out

    def row(gset, k):
        if not tables:
            n = s.size
            primes = _primes(ell * n)
            tables.extend(primes[label + 1:ell * n + 1:ell] for label in range(ell))
            columns.extend(zip(*map(coordinates, gset.points)))
            code_index.update(zip(codes(tables, gset.size), itertools.count()))
        moved = [list(map(table.__getitem__, s.row(k))) for table in tables]
        return list(map(code_index.__getitem__, codes(moved, gset.size)))

    return Rows(row)


def symmetric_power(s: GSet, i: int) -> GSet:
    """The G-set of size-i multisets over s, as weakly increasing tuples of
    point indices.  Kept on s (`_kept`), keyed by i."""
    i = operator.index(i)
    if i < 0:
        raise ValueError(f"power must be >= 0, got {i}")
    return _keep(s, i, lambda: GSet.from_point_action(
        s.group,
        itertools.combinations_with_replacement(range(s.size), i),
        _coded_rule(s, (0,) * i, tuple),
        label=f"sym^{i}({s.label})",
    ))


def p_mu_gset(s: GSet, mu) -> GSet:
    """The G-set of tuples of pairwise disjoint subsets of s with block j of
    size mu_j.  Blocks are ordered (tuples, not sets of blocks); each block
    is a sorted tuple of point indices.  Empty when weight(mu) > |s|.
    A point's coordinates are its blocks' entries in order, each labelled
    by its block (`_coded_rule`); the blocks are disjoint sets, so the
    labelled entries fix the point.  Kept on s (`_kept`), keyed by
    Partition(mu)."""
    mu = Partition(mu)
    return _keep(s, mu, lambda: GSet.from_point_action(
        s.group,
        _block_tuples(list(range(s.size)), tuple(mu)) if mu.weight <= s.size else [],
        _coded_rule(s, tuple(r for r, part in enumerate(mu) for _ in range(part)),
                    itertools.chain.from_iterable),
        label=_p_mu_label(mu, s),
    ))


def _block_tuples(remaining: list, parts: tuple):
    """Every tuple of pairwise disjoint blocks of the given sizes drawn
    from remaining, each block a sorted tuple, in lexicographic order."""
    if not parts:
        yield ()
        return
    head, tail = parts[0], parts[1:]
    for block in itertools.combinations(remaining, head):
        if not tail:
            # the last block leaves nothing to list
            yield (block,)
            continue
        rest = [x for x in remaining if x not in block]
        for suffix in _block_tuples(rest, tail):
            yield (block,) + suffix


def _p_mu_label(mu, s: GSet) -> str:
    return "P_(" + ",".join(str(p) for p in mu) + f")({s.label})"


def orbits(s: GSet) -> list[list[int]]:
    """Orbits as sorted lists of point indices, ordered by least element."""
    tables = [s.table(g) for g in s.group.generators()]
    seen = [False] * s.size
    out = []
    for start in range(s.size):
        if seen[start]:
            continue
        component = [start]
        seen[start] = True
        queue = [start]
        while queue:
            idx = queue.pop()
            for table in tables:
                nxt = table[idx]
                if not seen[nxt]:
                    seen[nxt] = True
                    component.append(nxt)
                    queue.append(nxt)
        out.append(sorted(component))
    return out


def stabilizer(s: GSet, point) -> PermGroup:
    """The subgroup fixing one point."""
    group = s.group
    elements = group.elements
    return PermGroup(
        group.degree, [elements[k] for k in s._stabilizer_indices(s.index_of(point))]
    )


class BurnsideElement(Combination):
    """An integer combination of transitive G-set classes for a fixed group,
    keyed by canonical stabilizer fingerprints.  Immutable; zero
    coefficients are dropped (`ring.Combination`); the product is
    `burnside_mul`.  The constructor refuses a key that is not the
    canonical key of a subgroup (`PermGroup._is_class_key`), whatever its
    coefficient."""

    __slots__ = ()
    _MISMATCH = "group mismatch"

    @staticmethod
    def _key(group: PermGroup, key) -> tuple:
        key = tuple(key)
        if not group._is_class_key(key):
            raise ValueError(f"{key} is not the canonical key of a subgroup")
        return key

    @property
    def group(self) -> PermGroup:
        return self.base

    @classmethod
    def one(cls, group: PermGroup) -> BurnsideElement:
        return cls._trusted(group, {tuple(range(group.order)): 1})

    def terms(self) -> list[tuple[tuple, int]]:
        """(key, coefficient) sorted by descending stabilizer order, then
        fingerprint; i.e. smallest orbits first."""
        return [
            (key, self.coeffs[key])
            for key in sorted(self.coeffs, key=lambda k: (-len(k), k))
        ]

    def _product(self, other):
        return burnside_mul(self, other)

    def _key_size(self, key: tuple) -> int:
        # the orbit of a class: |G| over its stabilizer's order
        return self.base.order // len(key)

    def render(self) -> str:
        """One term per line: ``+c * [orbit: stabilizer-order o,
        fingerprint i,j,k]``, long fingerprints elided; Schur names appended
        over a full symmetric group when the class is a block-tuple class."""
        if self.is_zero():
            return "0"
        young = self.group.young_classes if self.group.is_full_symmetric() else None
        lines = []
        for key, c in self.terms():
            sign = "+" if c > 0 else "-"
            shown = ",".join(str(i) for i in key[:8]) + (",…" if len(key) > 8 else "")
            line = f"{sign}{abs(c)} * [orbit: stabilizer-order {len(key)}, fingerprint {shown}]"
            if young is not None and key in young:
                body = ",".join(str(p) for p in young[key])
                line += f" = P({body})"
            lines.append(line)
        return "\n".join(lines)

    def to_json(self) -> dict:
        young = self.group.young_classes if self.group.is_full_symmetric() else None
        return {
            "group_order": self.group.order,
            "degree": self.group.degree,
            "terms": [
                {
                    "coefficient": c,
                    "stabilizer_order": len(key),
                    "fingerprint": list(key),
                    "schur": list(young[key]) if young and key in young else None,
                }
                for key, c in self.terms()
            ],
        }

    def __repr__(self):
        return f"<BurnsideElement over {self.group!r}: {len(self.coeffs)} classes>"


def decompose(s: GSet) -> BurnsideElement:
    """Express a G-set in the transitive basis: one pass over orbits,
    classifying each by the canonical key of a point stabilizer.  A G-set's
    rows never change, so neither does its decomposition: the first call
    keeps it on s (`_decomposition`), for as long as s lives."""
    found = s._decomposition
    if found is None:
        group = s.group
        coeffs: dict[tuple, int] = {}
        for orbit in orbits(s):
            key = group._canonical_key(frozenset(s._stabilizer_indices(orbit[0])))
            coeffs[key] = coeffs.get(key, 0) + 1
        found = s._decomposition = BurnsideElement._trusted(group, coeffs)
    return found


def burnside_mul(a: BurnsideElement, b: BurnsideElement) -> BurnsideElement:
    """Product in the Burnside ring: basis classes multiply by decomposing
    the Cartesian product of their canonical coset spaces; results are
    cached on the group."""
    a._check(b)
    group = a.group
    out: dict[tuple, int] = {}
    for k1, c1 in a.coeffs.items():
        for k2, c2 in b.coeffs.items():
            pair = (k1, k2) if k1 <= k2 else (k2, k1)
            hit = group._class_product_cache.get(pair)
            if hit is None:
                product = product_gset(group.coset_space(pair[0]), group.coset_space(pair[1]))
                hit = decompose(product).coeffs
                group._class_product_cache[pair] = hit
            c = c1 * c2
            for key, mult in hit.items():
                out[key] = out.get(key, 0) + c * mult
    return BurnsideElement._trusted(group, out)


def lambda_general(s: GSet, i: int) -> BurnsideElement:
    """Exterior-power classes of an arbitrary G-set via the recursion
    opposite to the symmetric powers (`ring.recursion_step`), entirely
    inside the engine: symmetric powers are decomposed by brute force and
    multiplied in the transitive basis.  Vanishing above |s| is a theorem,
    so it is checked, not assumed: a nonzero value there raises
    TheoremViolation."""
    group = s.group
    if i < 0:
        raise ValueError(f"power must be >= 0, got {i}")
    one = BurnsideElement.one(group)
    sig = [one] + [decompose(symmetric_power(s, m)) for m in range(1, i + 1)]
    lam = [one]
    where = f"of {s.label} (size {s.size})"
    for m in range(1, i + 1):
        coeffs = recursion_step(m, s.size, lambda j, k: (lam[j] * sig[k]).coeffs, where,
                                lambda coeffs: BurnsideElement._trusted(group, coeffs).render())
        lam.append(BurnsideElement._trusted(group, coeffs))
    return lam[i]


def eq6_general(s: GSet, i: int) -> BurnsideElement:
    """Exterior-power classes by the closed signed sum over the classes of
    the block-tuple sets P_mu(s), mu a partition of i (`ring.closed_terms`).
    |P_mu(s)| = |s|!/(prod mu_j! (|s| - i)!) is checked against the point
    and then the table cap for every mu before any P_mu(s) is built, so an
    over-cap input fails at once, with the first over-cap build's error.
    λ^0 is the one term P_∅(s), the one-point set."""
    group = s.group
    if i < 0:
        raise ValueError(f"power must be >= 0, got {i}")
    if i > s.size:
        return BurnsideElement.zero(group)
    terms = list(closed_terms(i))
    for mu, _ in terms:
        _check_points(_points(pad(mu, s.size)), _p_mu_label(mu, s), group.order)
    total = BurnsideElement.zero(group)
    for mu, c in terms:
        total = total + decompose(p_mu_gset(s, mu)) * c
    return total


def extend_homomorphism(h: PermGroup, gen_images: dict,
                        target_degree: int) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Extend a map on a generating set of h to all of h, on image tuples,
    rejecting anything that is not a homomorphism: the pairs (s, φ(s)),
    each one permutation of h's points followed by the target's, close
    (`_orbit`, capped at |h|) into their graph, which must project
    one-to-one and onto h.  Every image must have the target degree."""
    for g in gen_images:
        if g not in h:
            raise ValueError(f"generator {g} is not in the group")
    degrees = {img.degree for img in gen_images.values()}
    if len(degrees) > 1:
        raise ValueError("generator images have inconsistent degrees")
    if degrees and degrees != {target_degree}:
        raise ValueError(
            f"generator images have degree {degrees.pop()}, expected {target_degree}"
        )
    d = h.degree
    pairs = [Permutation._trusted(g.images + tuple(map(d.__add__, img.images)))
             for g, img in gen_images.items()]
    error = ValueError("generator images do not define a homomorphism")
    graph = _orbit([tuple(range(1, d + target_degree + 1))], [_getter(p) for p in pairs],
                   (h.order, error))
    phi = {x[:d]: tuple(map((-d).__add__, x[d:])) for x in graph}
    if len(phi) != len(graph):
        raise error
    if len(phi) != h.order:
        raise ValueError("gen_images keys do not generate the group")
    return phi


def restrict(s: GSet, h: PermGroup, gen_images: dict | None = None) -> GSet:
    """Pull the action back along a homomorphism into s's group, given by
    images of a generating set of h; omitted, h must be a subgroup of s's
    group and the inclusion is used.  An element of h fixes a point iff
    its image does, so a point's stabilizer is the preimage of its
    stabilizer in s."""
    images = [g.images for g in h.elements]
    if gen_images is not None:
        phi = extend_homomorphism(h, gen_images, s.group.degree)
        images = [phi[x] for x in images]
    # element index in h -> element index of its image in s's group
    by_images = s.group._by_images
    phi_index = []
    for image in images:
        k = by_images.get(image)
        if k is None:
            raise ValueError(f"image {Permutation._trusted(image)} is not in the acting group")
        phi_index.append(k)
    label = f"res({s.label})"
    _check_points(s.size, label)

    def stabilizer(gset, idx):
        fixes = set(s._stabilizer_indices(idx))
        return [k for k, j in enumerate(phi_index) if j in fixes]

    return GSet(h, s.points, Rows(lambda gset, k: s.row(phi_index[k]), stabilizer), label=label)


def induce(s: GSet, group: PermGroup) -> GSet:
    """Induce an H-set up to a supergroup: points are (transversal index,
    point) pairs, and g sends (g_i, x) to (g_j, h·x) where g·g_i = g_j·h.
    The transversal is the least element of each left coset.  The pair
    (j, x) has index j·|s| + index of x, so g's row is, for each
    transversal index i, s's row of h shifted by j·|s|.  That shifted row
    depends only on the element g·g_i = g_j·h, so it is made once per
    group element, and g's row chains the shifted rows of its products
    with the transversal: one lookup of g·g_i per (element, transversal
    index), and none per point."""
    h = s.group
    for g in h.elements:
        if g not in group:
            raise ValueError("the acting group of s is not a subgroup")
    # element index in group -> (j, k) where the element is g_j times
    # element k of s's group
    split, reps = group._left_cosets(h.elements)
    label = f"ind({s.label})"
    _check_points(len(reps) * s.size, label, group.order)
    points = ((j, p) for j in range(len(reps)) for p in s.points)
    elements, products, nx = group.elements, group._products, s.size
    getters = [_getter(g) for g in reps]
    # shifted[gi]: where the element gi = g_j·h_k sends the pairs (0, x),
    # s's row of h_k shifted by j·|s|
    shifted = [list(map((j * nx).__add__, s.row(hk))) for j, hk in split]

    def row(gset, k):
        return list(itertools.chain.from_iterable(
            map(shifted.__getitem__, products(elements[k], getters))
        ))

    return GSet.from_point_action(group, points, Rows(row), label=label)


def _lift(x: GSet, n: int) -> GSet:
    """Induce an S_i-set up to S_n through the {1..i}-block stabilizer,
    which acts through its projection onto S_i (forget {i+1..n})."""
    i = x.group.degree
    h = young_subgroup(i, n)
    images = {g: Permutation(g.images[:i]) for g in h.generators()}
    return induce(restrict(x, h, images), symmetric_group(n))


def verify_lemma74(mu, i: int, n: int) -> dict:
    """Induce the block-tuple G-set of mu from S_i up to S_n through the
    block stabilizer and compare with the block-tuple G-set built in S_n
    directly: sizes and stabilizer classes must match."""
    mu = Partition(mu)
    if mu.weight != i or i > n:
        raise ValueError(f"need mu |- i <= n, got mu={mu}, i={i}, n={n}")
    induced = _lift(p_mu_gset(natural_gset(symmetric_group(i)), mu), n)
    target = p_mu_gset(natural_gset(symmetric_group(n)), mu)
    expected_size = _points(pad(mu, n))
    lhs = decompose(induced)
    rhs = decompose(target)
    return {
        "mu": list(mu),
        "i": i,
        "n": n,
        "size": induced.size,
        "target_size": target.size,
        "expected_size": expected_size,
        "isomorphic": lhs == rhs and induced.size == expected_size,
        "lhs": lhs.to_json(),
        "rhs": rhs.to_json(),
    }


def verify_lemma73(i: int, n: int) -> dict:
    """Check that inducing the top exterior-power class of {1..i} from S_i
    (through the block stabilizer) gives the i-th exterior-power class of
    {1..n}: induction is additive, so the class is pushed up term by term
    on canonical coset representatives."""
    if not 1 <= i <= n:
        raise ValueError(f"need 1 <= i <= n, got i={i}, n={n}")
    small_group = symmetric_group(i)
    ell_small = lambda_general(natural_gset(small_group), i)
    big_group = symmetric_group(n)
    pushed = BurnsideElement.zero(big_group)
    for key, c in ell_small.terms():
        pushed = pushed + decompose(_lift(small_group.coset_space(key), n)) * c
    ell_big = lambda_general(natural_gset(big_group), i)
    return {
        "i": i,
        "n": n,
        "pass": pushed == ell_big,
        "lhs": pushed.to_json(),
        "rhs": ell_big.to_json(),
    }


def schur_membership(s: GSet) -> list[dict]:
    """For each orbit of a full-symmetric-group action, name the block-tuple
    class it is isomorphic to, or report that its stabilizer class is not a
    block stabilizer (not a Schur set)."""
    group = s.group
    if not group.is_full_symmetric():
        raise ValueError("schur_membership needs the full symmetric group")
    young = group.young_classes
    verdicts = []
    for orbit in orbits(s):
        members = s._stabilizer_indices(orbit[0])
        mu = young.get(group._canonical_key(frozenset(members)))
        verdicts.append(
            {
                "representative_index": orbit[0],
                "orbit_size": len(orbit),
                "stabilizer_order": len(members),
                "schur": mu is not None,
                "mu": list(mu) if mu is not None else None,
            }
        )
    return verdicts


def burnside_to_schur(x: BurnsideElement) -> SchurElement:
    """The block-tuple basis combination of a Burnside element of the full
    symmetric group, read through the block stabilizer classes; rejects
    classes whose stabilizers are not block stabilizers."""
    from .schur import SchurElement

    group = x.group
    if not group.is_full_symmetric():
        raise ValueError("burnside_to_schur needs the full symmetric group")
    young = group.young_classes
    coeffs = {}
    for key, c in x.coeffs.items():
        mu = young.get(key)
        if mu is None:
            raise ValueError(
                f"class with stabilizer order {len(key)} is not a block-tuple class"
            )
        coeffs[mu] = c
    return SchurElement(group.degree, coeffs)
