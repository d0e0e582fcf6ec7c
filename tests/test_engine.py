"""Brute-force engine: groups, actions, decomposition, induction.

The engine is itself the oracle for the closed formulas, so these tests
lean on definitional facts checked by hand (orbit-counting, conjugacy of
stabilizers along an orbit, coset counts) and on tiny worked examples.
"""

import contextlib
import io
import os
import random
import re
import subprocess
import sys
import tracemalloc
from math import factorial
from pathlib import Path

import pytest

from burnside import cli, engine, partitions, ring
from burnside.engine import (
    BurnsideElement,
    CapExceeded,
    GroupFileError,
    GSet,
    PermGroup,
    Permutation,
    burnside_to_schur,
    cyclic_group,
    decompose,
    dihedral_group,
    disjoint_union,
    eq6_general,
    group_closure,
    induce,
    lambda_general,
    natural_gset,
    orbits,
    p_mu_gset,
    parse_group_file,
    parse_permutation,
    product_gset,
    restrict,
    schur_membership,
    stabilizer,
    symmetric_group,
    symmetric_power,
    verify_lemma73,
    verify_lemma74,
    young_subgroup,
)
from burnside.partitions import DEFAULT_GROUP_CAP, enumerate_partitions, group_cap_default
from burnside.schur import basis_element, closed_lambda, schur_mul, sigma

from test_schur import random_elements


# ---------------------------------------------------------------- permutations


def test_composition_order():
    a = parse_permutation("(1 2 3)")
    b = parse_permutation("(1 2)", 3)
    # right-to-left: apply b first
    assert (a * b)(1) == a(b(1)) == 3
    assert (b * a)(1) == b(a(1)) == 1
    for x in (1, 2, 3):
        assert (a * b)(x) == a(b(x))


def test_permutation_basics():
    p = Permutation.from_cycles([(1, 2, 3)], 5)
    assert str(p) == "(1 2 3)"
    assert str(Permutation.identity(4)) == "()"
    assert p * p.inverse() == Permutation.identity(5)
    q = parse_permutation("(1 2)(3 4 5)", 6)
    assert tuple(q.cycle_type()) == (3, 2, 1)
    assert q.cycles() == [(1, 2), (3, 4, 5), (6,)]
    with pytest.raises(AttributeError):
        p.images = (1, 2, 3)
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))
    with pytest.raises(ValueError):
        Permutation.from_cycles([(1, 2), (2, 3)], 3)


def test_parse_permutation_round_trip():
    rng = random.Random(7)
    elements = list(symmetric_group(5).elements)
    for p in rng.sample(elements, 20):
        assert parse_permutation(str(p), 5) == p
    assert parse_permutation("()") == Permutation.identity(1)
    assert parse_permutation("(1,2)(3,4)") == parse_permutation("(1 2)(3 4)")
    with pytest.raises(ValueError):
        parse_permutation("(1 2) junk")
    with pytest.raises(ValueError):
        parse_permutation("(1 2 2)")
    with pytest.raises(ValueError):
        parse_permutation("(0 1)")
    with pytest.raises(ValueError):
        parse_permutation("(1 5)", degree=3)


def test_parse_group_file():
    gens, degree = parse_group_file(
        """
        # symmetries of the square
        degree 4
        (1 2 3 4)
        (1 3)   # a diagonal flip
        """
    )
    assert degree == 4
    assert gens == [parse_permutation("(1 2 3 4)"), parse_permutation("(1 3)", 4)]
    gens, degree = parse_group_file("(1 2)\n(2 3)\n")
    assert degree == 3

    with pytest.raises(GroupFileError) as exc:
        parse_group_file("(1 2)\ndegree 4\n")
    assert exc.value.line_number == 2
    with pytest.raises(GroupFileError) as exc:
        parse_group_file("degree 4\n(1 2\n")
    assert exc.value.line_number == 2
    with pytest.raises(GroupFileError) as exc:
        parse_group_file("degree six\n")
    assert exc.value.line_number == 1
    with pytest.raises(GroupFileError) as exc:
        parse_group_file("degree 2\n(1 2)\n(1 2 3)\n")
    assert exc.value.line_number == 3


def test_an_over_cap_degree_is_refused_as_the_natural_set(monkeypatch):
    # the header's degree is the natural set's size, and its refusal is
    # that set's own error
    monkeypatch.setattr(partitions, "DEFAULT_POINT_CAP", 5)
    errors = []
    for build in (lambda: parse_group_file("degree 6\n(1 2)\n"),
                  lambda: natural_gset(symmetric_group(6))):
        with pytest.raises(CapExceeded) as exc:
            build()
        errors.append((exc.value.kind, exc.value.cap, exc.value.construction))
    assert errors == [("point-count", 5, "natural({1..6})")] * 2


# ---------------------------------------------------------------------- groups


def test_group_closure_orders():
    for n in range(1, 6):
        assert symmetric_group(n).order == factorial(n)
    assert cyclic_group(4).order == 4
    assert dihedral_group(4).order == 8
    assert young_subgroup(2, 4).order == 4
    trivial = group_closure([], degree=3)
    assert trivial.order == 1 and trivial.degree == 3


def test_group_closure_cap(monkeypatch):
    gens = [parse_permutation("(1 2)", 5), parse_permutation("(1 2 3 4 5)")]
    monkeypatch.setenv("BURNSIDE_GROUP_CAP", "10")
    with pytest.raises(CapExceeded) as exc:
        group_closure(gens)
    assert exc.value.kind == "group-order"
    assert exc.value.cap == 10
    assert "closure" in exc.value.construction
    # the cap fires at exactly cap + 1 elements
    monkeypatch.setenv("BURNSIDE_GROUP_CAP", "120")
    assert group_closure(gens).order == 120
    monkeypatch.setenv("BURNSIDE_GROUP_CAP", "119")
    with pytest.raises(CapExceeded):
        group_closure(gens)
    with pytest.raises(ValueError):
        group_closure([parse_permutation("(1 2)"), parse_permutation("(1 2 3)")])


def test_group_cap_env(monkeypatch):
    monkeypatch.setenv("BURNSIDE_GROUP_CAP", "17")
    assert group_cap_default() == 17
    gens = [parse_permutation("(1 2)", 4), parse_permutation("(1 2 3 4)")]
    with pytest.raises(CapExceeded) as exc:
        group_closure(gens)
    assert exc.value.cap == 17
    monkeypatch.setenv("BURNSIDE_GROUP_CAP", "zero")
    with pytest.raises(ValueError):
        group_cap_default()
    monkeypatch.setenv("BURNSIDE_GROUP_CAP", "0")
    with pytest.raises(ValueError):
        group_cap_default()
    monkeypatch.delenv("BURNSIDE_GROUP_CAP")
    assert group_cap_default() == DEFAULT_GROUP_CAP


def test_group_closure_holds_the_table_cap(monkeypatch):
    # S_7 on 8 points: 5040 elements of 8 image entries each
    gens = [parse_permutation("(1 2)", 8), parse_permutation("(1 2 3 4 5 6 7)", 8)]
    monkeypatch.setattr(partitions, "TABLE_CAP", 8 * 1000)
    refusals = []
    for group_cap in ("5040", "1001", "1000"):
        monkeypatch.setenv("BURNSIDE_GROUP_CAP", group_cap)
        with pytest.raises(CapExceeded) as exc:
            group_closure(gens)
        refusals.append((exc.value.kind, exc.value.cap, exc.value.construction))
    # the smaller bound is named, the group-order cap on a tie
    assert refusals == [
        ("table-entries", 8000, "closure of 2 generators"),
        ("table-entries", 8000, "closure of 2 generators"),
        ("group-order", 1000, "closure of 2 generators"),
    ]
    monkeypatch.setattr(partitions, "TABLE_CAP", 8 * 5040)
    monkeypatch.setenv("BURNSIDE_GROUP_CAP", "5040")
    assert group_closure(gens).order == 5040
    # a degree past the table cap is refused before the identity is built
    monkeypatch.setattr(partitions, "TABLE_CAP", 7)
    with pytest.raises(CapExceeded) as exc:
        group_closure([], degree=8)
    assert (exc.value.kind, exc.value.cap) == ("table-entries", 7)


# --------------------------------------------------------------------- actions


def test_natural_orbits_and_stabilizer():
    for n in range(1, 6):
        nat = natural_gset(symmetric_group(n))
        assert orbits(nat) == [sorted(range(n))]
        assert stabilizer(nat, 1).order == factorial(n - 1)


def test_trivial_group_orbits():
    nat = natural_gset(group_closure([], degree=3))
    assert orbits(nat) == [[0], [1], [2]]


def test_cyclic_orbits_on_ordered_pairs():
    group = cyclic_group(4)
    points = [(a, b) for a in range(1, 5) for b in range(1, 5) if a != b]
    pairs = GSet.from_point_action(
        group, points, lambda g, p: (g(p[0]), g(p[1])), label="ordered pairs"
    )
    parts = orbits(pairs)
    assert len(parts) == 3
    assert all(len(o) == 4 for o in parts)


def test_block_tuple_stabilizer():
    gset = p_mu_gset(natural_gset(symmetric_group(4)), (2, 2))
    point = ((0, 1), (2, 3))
    stab = stabilizer(gset, point)
    assert stab.order == 4
    assert parse_permutation("(1 2)", 4) in stab
    assert parse_permutation("(3 4)", 4) in stab


def test_broken_actions_rejected():
    group = symmetric_group(3)
    e = group.identity

    with pytest.raises(ValueError, match="identity moves"):
        GSet.from_point_action(group, [1, 2, 3], lambda g, p: p % 3 + 1)

    def bogus(g, p):
        return p if g == e else p % 3 + 1

    with pytest.raises(ValueError, match="action axiom"):
        GSet.from_point_action(group, [1, 2, 3], bogus)

    with pytest.raises(ValueError, match="duplicate"):
        GSet.from_point_action(group, [1, 1, 2], lambda g, p: p)


def test_tables_match_pointwise_action():
    nat = natural_gset(symmetric_group(3))
    for g in symmetric_group(3).elements:
        table = nat.table(g)
        for idx, p in enumerate(nat.points):
            assert nat.points[table[idx]] == g(p)


def test_point_cap(monkeypatch):
    nat = natural_gset(symmetric_group(4))
    monkeypatch.setattr(partitions, "DEFAULT_POINT_CAP", 5)
    with pytest.raises(CapExceeded) as exc:
        symmetric_power(nat, 3)
    assert exc.value.kind == "point-count"
    assert exc.value.cap == 5


# ----------------------------------------------------------- power set sizes


def test_symmetric_power_sizes():
    nat = natural_gset(symmetric_group(4))
    assert symmetric_power(nat, 0).size == 1
    assert symmetric_power(nat, 1).size == 4
    assert symmetric_power(nat, 2).size == 10
    with pytest.raises(ValueError):
        symmetric_power(nat, -1)


def test_p_mu_sizes():
    nat = natural_gset(symmetric_group(4))
    assert p_mu_gset(nat, (4,)).size == 1
    assert p_mu_gset(nat, (1,)).size == 4
    assert p_mu_gset(nat, (2, 1)).size == 12
    assert p_mu_gset(natural_gset(symmetric_group(2)), (2, 1)).size == 0


# ------------------------------------------------------------- decomposition


def test_decompose_transitive():
    nat = natural_gset(symmetric_group(4))
    element = decompose(nat)
    ((key, coeff),) = element.terms()
    assert coeff == 1
    assert len(key) == 6
    assert element.cardinality() == 4


def test_decompose_union_doubles():
    nat = natural_gset(symmetric_group(4))
    both = decompose(disjoint_union(nat, nat))
    assert both == decompose(nat) * 2
    assert decompose(GSet.from_point_action(symmetric_group(4), [], lambda g, p: p)).is_zero()
    one = decompose(GSet.from_point_action(symmetric_group(4), ["*"], lambda g, p: p))
    assert one == BurnsideElement.one(symmetric_group(4))


def test_decompose_is_a_ring_map():
    group = symmetric_group(3)
    s = natural_gset(group)
    t = p_mu_gset(s, (2, 1))
    assert decompose(product_gset(s, t)) == decompose(s) * decompose(t)
    assert decompose(disjoint_union(s, t)) == decompose(s) + decompose(t)


def test_basis_product_matches_schur():
    n = 4
    nat = natural_gset(symmetric_group(n))
    a = p_mu_gset(nat, (3, 1))
    product = decompose(product_gset(a, a))
    expected = schur_mul(basis_element((3, 1), n), basis_element((3, 1), n))
    assert burnside_to_schur(product) == expected


def test_orbit_counting_lemma():
    group = symmetric_group(4)
    nat = natural_gset(group)
    for gset in (
        nat,
        p_mu_gset(nat, (2, 1, 1)),
        symmetric_power(nat, 2),
        product_gset(nat, nat),
    ):
        total = sum(sum(k == v for k, v in enumerate(gset.table(g))) for g in group.elements)
        assert total == group.order * len(orbits(gset))


def test_stabilizers_conjugate_along_orbit():
    group = symmetric_group(4)
    gset = p_mu_gset(natural_gset(group), (2, 1, 1))
    rng = random.Random(5)
    base = gset.points[0]
    key = group.canonical_key(stabilizer(gset, base).elements)
    for _ in range(10):
        g = rng.choice(group.elements)
        moved = gset.act(g, base)
        assert group.canonical_key(stabilizer(gset, moved).elements) == key


def test_coset_space_round_trip():
    group = symmetric_group(4)
    key = group.canonical_key(young_subgroup(2, 4).elements)
    space = group.coset_space(key)
    assert space.size == group.order // len(key)
    assert decompose(space).coeffs == {key: 1}


# --------------------------------------------------------------- lambda/sigma


def test_sigma_power_matches_engine():
    n = 4
    outer = symmetric_power(natural_gset(symmetric_group(n)), 2)
    assert burnside_to_schur(decompose(outer)) == sigma(2, n)


def test_lambda_general_basics():
    nat = natural_gset(symmetric_group(4))
    assert lambda_general(nat, 0) == BurnsideElement.one(symmetric_group(4))
    assert lambda_general(nat, 1) == decompose(nat)
    assert lambda_general(nat, 5).is_zero()
    assert burnside_to_schur(lambda_general(nat, 2)) == closed_lambda(2, 4)
    with pytest.raises(ValueError):
        lambda_general(nat, -1)


def test_eq6_matches_recursion_small():
    cases = [
        natural_gset(cyclic_group(4)),
        natural_gset(dihedral_group(4)),
        natural_gset(symmetric_group(3)),
        disjoint_union(
            natural_gset(symmetric_group(2)), natural_gset(symmetric_group(2))
        ),
    ]
    for gset in cases:
        for i in range(gset.size + 2):
            assert eq6_general(gset, i) == lambda_general(gset, i), (gset.label, i)


# --------------------------------------------------------- restrict / induce


def test_restrict_inclusion():
    group = symmetric_group(4)
    nat = natural_gset(group)
    same = restrict(nat, group)
    assert decompose(same) == decompose(nat)
    down = restrict(nat, young_subgroup(2, 4))
    assert orbits(down) == [[0, 1], [2, 3]]
    with pytest.raises(ValueError, match="not in the acting group"):
        restrict(natural_gset(symmetric_group(3)), cyclic_group(4))


def test_restrict_rejects_non_homomorphism():
    h = cyclic_group(3)
    rotation = parse_permutation("(1 2 3)")
    with pytest.raises(ValueError, match="homomorphism"):
        restrict(natural_gset(symmetric_group(3)), h, {rotation: parse_permutation("(1 2)", 3)})


def test_restrict_along_projection():
    # pull the natural S_2-set back through the block-stabilizer projection
    h = young_subgroup(2, 4)
    images = {}
    for g in h.generators():
        images[g] = Permutation(g(p) for p in (1, 2))
    pulled = restrict(natural_gset(symmetric_group(2)), h, images)
    assert pulled.group == h
    assert orbits(pulled) == [[0, 1]]


def test_induce_by_whole_group():
    group = symmetric_group(3)
    nat = natural_gset(group)
    assert decompose(induce(nat, group)) == decompose(nat)


def test_induce_one_point_gives_coset_space():
    h = young_subgroup(2, 4)
    group = symmetric_group(4)
    induced = induce(GSet.from_point_action(h, ["*"], lambda g, p: p), group)
    assert induced.size == group.order // h.order
    key = group.canonical_key(h.elements)
    assert decompose(induced).coeffs == {key: 1}


def test_induce_transversals():
    group = young_subgroup(2, 4)
    h = group_closure([parse_permutation("(1 2)", 4)])
    one = GSet.from_point_action(h, ["*"], lambda g, p: p)
    assert induce(one, group).size == 2
    with pytest.raises(ValueError, match="not a subgroup"):
        induce(natural_gset(cyclic_group(3)), symmetric_group(4))


def test_lemma74_reports():
    report = verify_lemma74((1,), 1, 3)
    assert report["isomorphic"]
    assert report["size"] == report["expected_size"] == 3
    report = verify_lemma74((2,), 2, 4)
    assert report["isomorphic"]
    assert report["size"] == 6
    report = verify_lemma74((1, 1), 2, 3)
    assert report["isomorphic"]
    assert report["size"] == 6
    with pytest.raises(ValueError):
        verify_lemma74((2, 1), 2, 4)


def test_lemma73_reports():
    for i, n in ((1, 3), (2, 3), (2, 4)):
        report = verify_lemma73(i, n)
        assert report["pass"], (i, n)
    with pytest.raises(ValueError):
        verify_lemma73(4, 3)


# ------------------------------------------------------- Schur classification


def test_schur_membership_natural():
    verdicts = schur_membership(natural_gset(symmetric_group(4)))
    assert len(verdicts) == 1
    assert verdicts[0]["schur"]
    assert verdicts[0]["mu"] == [3, 1]


def test_schur_membership_rejects_other_groups():
    with pytest.raises(ValueError, match="full symmetric"):
        schur_membership(natural_gset(cyclic_group(4)))


def test_iterated_symmetric_square_non_block_orbit():
    inner = symmetric_power(natural_gset(symmetric_group(4)), 2)
    assert all(v["schur"] for v in schur_membership(inner))
    outer = symmetric_power(inner, 2)
    point = tuple(sorted((inner.index_of((0, 1)), inner.index_of((2, 3)))))
    stab = stabilizer(outer, point)
    assert stab.order == 8
    for text in ("(1 2)", "(3 4)", "(1 3)(2 4)", "(1 4)(2 3)"):
        assert parse_permutation(text, 4) in stab
    bad = [v for v in schur_membership(outer) if not v["schur"]]
    assert len(bad) == 1
    assert bad[0]["stabilizer_order"] == 8


def test_schur_burnside_round_trip():
    for n in (2, 3, 4):
        group = symmetric_group(n)
        keys = group.young_keys
        for x in random_elements(n, 5, 40 + n):
            y = BurnsideElement(group, {keys[mu]: c for mu, c in x.coeffs.items()})
            assert burnside_to_schur(y) == x


def test_burnside_to_schur_rejects_non_block_classes():
    outer = symmetric_power(
        symmetric_power(natural_gset(symmetric_group(4)), 2), 2
    )
    with pytest.raises(ValueError, match="not a block-tuple"):
        burnside_to_schur(decompose(outer))


@pytest.mark.parametrize("key", [(0, 5), (1, 2), (7,), (), (0, 0, 1), (-1, 0)])
def test_burnside_element_rejects_keys_that_are_not_class_keys(key):
    # over S_3, (0, 5) is {(), (1 3)}, a conjugate of the canonical (0, 1);
    # (1, 2) lacks the identity; (7,) indexes no element
    group = symmetric_group(3)
    assert BurnsideElement(group, {(0, 1): 2}).coeffs == {(0, 1): 2}
    with pytest.raises(ValueError, match=re.escape(str(key))):
        BurnsideElement(group, {key: 1})


def test_burnside_element_memoizes_only_accepted_exact_int_keys():
    # the group's memo answers (0, 1) once it is in; (0.0, 1) equals it and
    # hashes alike, and is still refused, as a non-class key is
    group = PermGroup(3, symmetric_group(3).elements)
    memo = group._record[1]
    assert BurnsideElement(group, {(0, 1): 2}).coeffs == {(0, 1): 2}
    assert memo == {(0, 1): (0, 1)}
    for key in [(0.0, 1), (0, 5)]:
        message = f"{key} is not the canonical key of a subgroup"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            BurnsideElement(group, {key: 1})
    assert memo == {(0, 1): (0, 1)}
    assert BurnsideElement(group, {(0, 1): 1}).coeffs == {(0, 1): 1}


@pytest.mark.parametrize("key", [(0, 5), (7,), "junk"])
def test_burnside_element_checks_keys_with_zero_coefficients(key):
    # a zero coefficient is dropped, but only after its key is checked, as
    # SchurElement does
    with pytest.raises(ValueError, match="not the canonical key"):
        BurnsideElement(symmetric_group(3), {key: 0})


# ------------------------------------------------------------------ rendering


def test_burnside_render():
    group = symmetric_group(4)
    assert BurnsideElement.zero(group).render() == "0"
    one = BurnsideElement.one(group)
    text = one.render()
    assert "stabilizer-order 24" in text
    assert "= P(4)" in text
    assert "…" in text  # fingerprint of 24 indices is elided
    nat = decompose(natural_gset(group))
    assert "= P(3,1)" in nat.render()
    doc = nat.to_json()
    assert doc["terms"][0]["schur"] == [3, 1]
    assert doc["group_order"] == 24


# ------------------------------------------------ table-engine invariants


def _word_lengths(group):
    """The length of a shortest word in the generators for every element,
    by breadth-first search from the identity."""
    lengths = {group.identity: 0}
    frontier = [group.identity]
    while frontier:
        nxt = []
        for cur in frontier:
            for s in group.generators():
                new = cur * s
                if new not in lengths:
                    lengths[new] = lengths[cur] + 1
                    nxt.append(new)
        frontier = nxt
    return lengths


def test_action_checked_on_every_element_not_only_generators():
    group = symmetric_group(4)
    # an element no product of at most two generators reaches, so a check
    # that only composed generator tables would never see it
    lengths = _word_lengths(group)
    bad = max(group.elements, key=lengths.__getitem__)
    assert lengths[bad] >= 3

    def wrong_once(g, p):
        return p if g == bad else g(p)

    with pytest.raises(ValueError, match="action axiom"):
        GSet.from_point_action(group, [1, 2, 3, 4], wrong_once)


def test_image_outside_point_set_is_a_value_error():
    group = symmetric_group(3)

    def escapes(g, p):
        return p if g == group.identity else g(p) + 10

    with pytest.raises(ValueError, match="leaves the point set"):
        GSet.from_point_action(group, [1, 2, 3], escapes)


def _all_subgroups(group):
    """Every subgroup of a group whose subgroups are all 2-generated."""
    found = set()
    for a in group.elements:
        for b in group.elements:
            found.add(frozenset(group_closure([a, b]).elements))
    return found


def _reference_key(group, members):
    """The canonical key by a full conjugation sweep over the group."""
    return min(
        tuple(sorted(group.index_of(g * h * g.inverse()) for h in members))
        for g in group.elements
    )


@pytest.mark.parametrize(
    "group, subgroups, classes",
    [
        (group_closure(symmetric_group(4).generators()), 30, 11),
        # direct constructor, no generators given: a greedy set is derived;
        # S_2 x S_3 is dihedral of order 12
        (PermGroup(5, young_subgroup(2, 5).elements), 16, 10),
        (dihedral_group(6), 16, 10),
    ],
    ids=["S4", "young-2-5", "D6"],
)
def test_canonical_key_matches_full_conjugation_sweep(group, subgroups, classes):
    found = _all_subgroups(group)
    assert len(found) == subgroups
    keys = set()
    for members in sorted(found, key=len):
        key = group.canonical_key(members)
        assert key == _reference_key(group, members)
        keys.add(key)
    assert len(keys) == classes


def _blocks(mu):
    """The consecutive blocks of {1..n} with sizes mu, as frozensets."""
    blocks, start = [], 1
    for part in mu:
        blocks.append(frozenset(range(start, start + part)))
        start += part
    return blocks


@pytest.mark.parametrize("n", range(1, 6))
def test_young_keys_match_block_stabilizer_sweep(n):
    group = symmetric_group(n)
    keys = group.young_keys
    assert set(keys) == set(enumerate_partitions(n))
    for mu, key in keys.items():
        members = [
            g for g in group.elements
            if all(frozenset(g(p) for p in b) == b for b in _blocks(mu))
        ]
        assert key == _reference_key(group, members)
    assert group.young_classes == {key: mu for mu, key in keys.items()}


def test_young_subgroup_is_setwise_stabilizer():
    for n in range(1, 6):
        for i in range(n + 1):
            block = set(range(1, i + 1))
            expected = [g for g in symmetric_group(n).elements if {g(p) for p in block} == block]
            assert young_subgroup(i, n).elements == tuple(expected)


def test_closure_does_not_depend_on_generator_order():
    gens = [parse_permutation(text, 6) for text in ("(1 2)", "(1 2 3 4 5 6)", "(3 4)", "(2 5)")]
    reference = group_closure(gens)
    rng = random.Random(7)
    for _ in range(3):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        group = group_closure(shuffled)
        assert group.elements == reference.elements
        assert [group.index_of(g) for g in reference.elements] == list(range(reference.order))
    assert reference.elements == tuple(sorted(reference.elements))


def test_table_cap(monkeypatch):
    group = symmetric_group(3)
    monkeypatch.setattr(partitions, "TABLE_CAP", 18)
    nat = natural_gset(group)  # 6 elements x 3 points = 18 entries
    # composites stay lazy: tabulating this product would need 54 entries
    square = product_gset(nat, nat)
    assert len(orbits(square)) == 2
    assert decompose(square).cardinality() == 9
    monkeypatch.setattr(partitions, "TABLE_CAP", 17)
    with pytest.raises(CapExceeded) as exc:
        natural_gset(group)
    assert exc.value.kind == "table-entries"
    assert exc.value.cap == 17


# ------------------------------------------------------- rows by definition
#
# Every construction computes its rows from its parents' rows.  These tests
# write each action out pointwise, on point objects, and compare it with
# every stored or lazy row of every group element.


def _natural_image(g, point):
    """The natural action, or the tagged one on a disjoint union of two
    natural sets."""
    return (point[0], g(point[1])) if isinstance(point, tuple) else g(point)


def _rows_match(gset, image):
    """gset's row of every element equals image(g, point) on every point,
    and every point's stabilizer is the elements whose image of the point
    is the point itself."""
    elements = gset.group.elements
    for k, g in enumerate(elements):
        expected = [gset.index_of(image(g, p)) for p in gset.points]
        assert gset.row(k) == expected, (gset.label, str(g))
        assert gset.table(g) == expected
    for idx, p in enumerate(gset.points):
        fixing = [k for k, g in enumerate(elements) if image(g, p) == p]
        assert gset._stabilizer_indices(idx) == fixing, (gset.label, p)


ROW_CASES = [
    ("S4", symmetric_group(4), False),
    ("S4-doubled", symmetric_group(4), True),
    ("D5", dihedral_group(5), False),
    ("D5-doubled", dihedral_group(5), True),
]


def _base(group, doubled):
    nat = natural_gset(group)
    return disjoint_union(nat, nat) if doubled else nat


@pytest.mark.parametrize("group, doubled", [c[1:] for c in ROW_CASES], ids=[c[0] for c in ROW_CASES])
def test_power_and_block_rows_match_definitions(group, doubled):
    base = _base(group, doubled)
    _rows_match(base, _natural_image)

    def move(g, x):
        return base.index_of(_natural_image(g, base.points[x]))

    keys = set()
    for i in range(4):
        power = symmetric_power(base, i)
        _rows_match(power, lambda g, m: tuple(sorted(move(g, x) for x in m)))
        keys |= set(decompose(power).coeffs)
        for mu in enumerate_partitions(i) if i else []:
            blocks = p_mu_gset(base, mu)
            _rows_match(
                blocks,
                lambda g, point: tuple(tuple(sorted(move(g, x) for x in b)) for b in point),
            )
            keys |= set(decompose(blocks).coeffs)
    pair = product_gset(base, natural_gset(group))
    _rows_match(pair, lambda g, pq: (_natural_image(g, pq[0]), g(pq[1])))
    keys |= set(decompose(pair).coeffs)
    # a coset space's point is a coset C, sent by g to gC
    elements = group.elements
    for key in sorted(keys):
        space = group.coset_space(key)
        _rows_match(
            space, lambda g, coset: frozenset(group.index_of(g * elements[c]) for c in coset)
        )


def _point_stabilizer(group):
    return PermGroup(group.degree, [g for g in group.elements if g(1) == 1])


@pytest.mark.parametrize("group, doubled", [c[1:] for c in ROW_CASES], ids=[c[0] for c in ROW_CASES])
def test_restrict_and_induce_rows_match_definitions(group, doubled):
    base = _base(group, doubled)
    h = _point_stabilizer(group)
    # restriction along the inclusion: the parent's row at the same element
    down = restrict(base, h)
    for k, g in enumerate(h.elements):
        assert down.row(k) == base.row(group.index_of(g))
    _rows_match(down, _natural_image)

    # the default transversal: the first element of each left coset gH
    default = []
    covered = set()
    for g in group.elements:
        if g not in covered:
            default.append(g)
            covered |= {g * m for m in h.elements}
    up = induce(down, group)
    assert up.size == len(default) * down.size

    def image(g, point):
        j, x = point
        moved = g * default[j]
        (j2,) = [j2 for j2, r in enumerate(default) if r.inverse() * moved in h]
        return (j2, _natural_image(default[j2].inverse() * moved, x))

    _rows_match(up, image)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_extend_homomorphism_is_the_projection_of_a_young_subgroup(n):
    # the graph's closure on the generators of S_i x S_{n-i} sends every
    # element g to g restricted to {1..i}
    for i in range(1, n + 1):
        h = young_subgroup(i, n)
        images = {g: Permutation(g.images[:i]) for g in h.generators()}
        phi = engine.extend_homomorphism(h, images, i)
        assert phi == {g.images: g.images[:i] for g in h.elements}


@pytest.mark.parametrize("group", [symmetric_group(4), dihedral_group(5)], ids=["S4", "D5"])
def test_composite_stabilizers_match_definitions(group):
    n = group.degree
    nat = natural_gset(group)
    # (x, y) x (tag, z), each coordinate moved by the natural action
    composite = product_gset(product_gset(nat, nat), disjoint_union(nat, nat))

    def image(g, point):
        (x, y), (tag, z) = point
        return (g(x), g(y)), (tag, g(z))

    # G x S_2 inside the Young subgroup S_n x S_2, acting through its
    # projection onto {1..n}, which forgets {n+1, n+2}
    h = group_closure(
        [Permutation(g.images + (n + 1, n + 2)) for g in group.generators()]
        + [parse_permutation(f"({n + 1} {n + 2})", n + 2)]
    )
    assert h.order == 2 * group.order

    def project(g):
        return Permutation(g.images[:n])

    down = restrict(composite, h, {g: project(g) for g in h.generators()})
    for gset, act in ((composite, image), (down, lambda g, p: image(project(g), p))):
        _rows_match(gset, act)
        rebuilt = GSet.from_point_action(gset.group, gset.points, act)
        assert decompose(gset) == decompose(rebuilt)


def test_restrict_rows_along_a_projection():
    h = young_subgroup(2, 4)
    images = {g: Permutation(g(p) for p in (1, 2)) for g in h.generators()}
    small = natural_gset(symmetric_group(2))
    pulled = restrict(small, h, images)
    # h acts through its action on the block {1, 2}
    _rows_match(pulled, lambda g, p: g(p))
    for k, g in enumerate(h.elements):
        phi = Permutation(g(p) for p in (1, 2))
        assert pulled.row(k) == small.row(symmetric_group(2).index_of(phi))


PRODUCT_CASES = [
    ("S4", symmetric_group(4)),
    ("D5", dihedral_group(5)),
    ("C4wrC2", group_closure([parse_permutation("(1 2 3 4)", 8),
                              parse_permutation("(1 5)(2 6)(3 7)(4 8)", 8)])),
    # an itemgetter of one index returns a scalar, not a tuple
    ("degree-1", group_closure(parse_group_file("degree 1\n()\n")[0], degree=1)),
    ("degree-2", group_closure([parse_permutation("(1 2)", 2)])),
]


@pytest.mark.parametrize("group", [c[1] for c in PRODUCT_CASES], ids=[c[0] for c in PRODUCT_CASES])
def test_products_are_the_group_law(group):
    elements = group.elements
    getters = [engine._getter(h) for h in elements]
    for g in elements:
        assert list(group._products(g, getters)) == [group.index_of(g * h) for h in elements]
    assert group.left_multiples == [
        (group.index_of(s), [group.index_of(s * h) for h in elements])
        for s in group.generators()
    ]
    assert group.conjugations == [
        [group.index_of(s * h * s.inverse()) for h in elements]
        for s in group.generators()
    ]
    # the walk reaches every element once, from the identity
    steps = [engine._getter(s) for s in group.generators()]
    assert sorted(engine._orbit([group.identity.images], steps)) == [g.images for g in elements]
    # a cap of |G| - 1 is passed by the last element, with the cap's own error
    if group.order > 1:
        with pytest.raises(ValueError, match="^over the cap$"):
            engine._orbit([group.identity.images], steps, (group.order - 1, ValueError("over the cap")))


def test_coded_rows_match_definitions_past_the_prime_table(monkeypatch):
    # 40 points with two labels need the 80th prime: the shared table grows
    # while the rows are made, and the codes still fix the points
    monkeypatch.setattr(ring, "_PRIMES", ring._PRIMES[:21])
    group = cyclic_group(40)
    nat = natural_gset(group)
    square = symmetric_power(nat, 2)
    blocks = p_mu_gset(nat, (2, 1))
    assert len(ring._PRIMES) > 2 * nat.size
    assert (square.size, blocks.size) == (820, 29640)
    rotation = parse_permutation("(" + " ".join(map(str, range(1, 41))) + ")", 40)
    # the rows of the generators and a few powers of it, against the
    # definitions; every other row is tied to these by the action axioms
    for g in (rotation, rotation * rotation, rotation.inverse(), group.identity):
        expected = [square.index_of(tuple(sorted(g(x + 1) - 1 for x in m))) for m in square.points]
        assert square.table(g) == expected
        expected = [
            blocks.index_of(tuple(tuple(sorted(g(x + 1) - 1 for x in b)) for b in point))
            for point in blocks.points
        ]
        assert blocks.table(g) == expected


def test_empty_powers_and_block_tuples():
    group = symmetric_group(3)
    nat = natural_gset(group)
    zeroth = symmetric_power(nat, 0)
    assert zeroth.points == ((),)
    assert all(zeroth.row(k) == [0] for k in range(group.order))
    assert decompose(zeroth) == BurnsideElement.one(group)
    for mu in ((4,), (2, 2), (1, 1, 1, 1)):
        none = p_mu_gset(nat, mu)
        assert none.points == ()
        assert all(none.row(k) == [] for k in range(group.order))
        assert decompose(none).is_zero()
    # no points at all: every power above 0 is empty too
    empty = GSet.from_point_action(group, [], lambda g, p: p)
    assert symmetric_power(empty, 2).size == 0
    assert symmetric_power(empty, 0).size == 1
    # λ^0 is the unit on every set, the empty one too, by both routes
    for route in (eq6_general, lambda_general):
        assert route(empty, 0) == BurnsideElement.one(group)


def test_disjoint_union_stabilizer_reads_no_row():
    group = symmetric_group(6)
    nat = natural_gset(group)
    blocks = p_mu_gset(nat, (1, 1, 1))
    pair = product_gset(nat, nat)
    union = disjoint_union(blocks, pair)
    assert decompose(union) == decompose(blocks) + decompose(pair)
    rows = [union.row(k) for k in range(group.order)]

    def no_row(gset, k):
        raise AssertionError("a stabilizer built a whole row")

    # neither the union nor the product inside it computes a row
    for composite in (union, pair):
        composite._rule = engine.Rows(no_row, composite._rule.stabilizer)
    for idx in range(union.size):
        fixing = [k for k, row in enumerate(rows) if row[idx] == idx]
        assert union._stabilizer_indices(idx) == fixing


def test_restriction_stabilizer_reads_no_row():
    group = symmetric_group(5)
    n = group.degree
    nat = natural_gset(group)
    pair, union = product_gset(nat, nat), disjoint_union(nat, nat)
    composite = product_gset(pair, union)
    # S_5 x S_2 acting through its projection onto {1..5}
    h = group_closure(
        [Permutation(g.images + (n + 1, n + 2)) for g in group.generators()]
        + [parse_permutation(f"({n + 1} {n + 2})", n + 2)]
    )
    down = restrict(composite, h, {g: Permutation(g.images[:n]) for g in h.generators()})
    rows = [down.row(k) for k in range(h.order)]

    def no_row(gset, k):
        raise AssertionError("a stabilizer built a whole row")

    # neither the restricted composite nor any composite inside it computes a row
    for lazy in (composite, pair, union):
        lazy._rule = engine.Rows(no_row, lazy._rule.stabilizer)
    for idx in range(down.size):
        fixing = [k for k, row in enumerate(rows) if row[idx] == idx]
        assert down._stabilizer_indices(idx) == fixing


def test_wrong_row_on_one_non_generator_is_rejected():
    group = symmetric_group(4)
    bad = max(group.elements, key=_word_lengths(group).__getitem__)
    assert bad not in group.generators() and bad != group.identity
    bad_k = group.index_of(bad)
    elements = group.elements

    def row(gset, k):
        return [0, 1, 2, 3] if k == bad_k else [p - 1 for p in elements[k].images]

    with pytest.raises(ValueError, match="action axiom"):
        GSet.from_point_action(group, [1, 2, 3, 4], engine.Rows(row))
    # the same rule with the true row everywhere is accepted
    good = GSet.from_point_action(
        group, [1, 2, 3, 4], engine.Rows(lambda gset, k: [p - 1 for p in elements[k].images])
    )
    assert good.row(bad_k) == [p - 1 for p in bad.images]


@pytest.mark.parametrize("outside", [3, -1])
def test_row_index_outside_the_point_set_is_rejected(outside):
    group = symmetric_group(3)
    moved = group.index_of(parse_permutation("(1 2)", 3))
    elements = group.elements

    def row(gset, k):
        images = [p - 1 for p in elements[k].images]
        if k == moved:
            images[2] = outside
        return images

    with pytest.raises(ValueError, match="leaves the point set"):
        GSet.from_point_action(group, [1, 2, 3], engine.Rows(row))


def test_verified_set_runs_its_rule_once_per_element():
    # the stored rows become the set's rule: every later read is a lookup
    group = symmetric_group(4)
    elements = group.elements
    calls = []

    def row(gset, k):
        calls.append(k)
        return [p - 1 for p in elements[k].images]

    nat = GSet.from_point_action(group, [1, 2, 3, 4], engine.Rows(row))
    assert sorted(calls) == list(range(group.order))
    g = parse_permutation("(1 2 3)", 4)
    k = group.index_of(g)
    assert nat.row(k) == nat.table(g) == [1, 2, 0, 3]
    assert nat.act(g, 3) == 1 and nat.row(k)[0] == 1
    assert orbits(nat) == [[0, 1, 2, 3]]
    assert stabilizer(nat, 4).order == 6
    assert decompose(nat) == decompose(natural_gset(group))
    assert len(calls) == group.order


def test_block_tuples_list_the_last_block_without_a_leftover():
    # P_(1) of 50,000 points: listing the rest after the last block cost
    # |S| per point, minutes in all
    script = (
        "from burnside.engine import group_closure, natural_gset, p_mu_gset\n"
        "print(p_mu_gset(natural_gset(group_closure([], degree=50000)), (1,)).size)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "50000\n"


def test_point_cap_stops_generation():
    # 30^6 ordered 6-tuples of distinct points and C(37, 8) multisets: the
    # cap must stop the enumeration, not only reject its result
    script = (
        "from burnside import partitions\n"
        "from burnside.engine import CapExceeded, cyclic_group, natural_gset, p_mu_gset, symmetric_power\n"
        "partitions.DEFAULT_POINT_CAP = 1000\n"
        "nat = natural_gset(cyclic_group(30))\n"
        "for build in (lambda: p_mu_gset(nat, (1,) * 6),\n"
        "              lambda: symmetric_power(nat, 8)):\n"
        "    try:\n"
        "        build()\n"
        "    except CapExceeded as exc:\n"
        "        print(exc.kind, exc.cap, exc.construction)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "point-count 1000 P_(1,1,1,1,1,1)(natural({1..30}))",
        "point-count 1000 sym^8(natural({1..30}))",
    ]


def test_patched_point_cap_is_read_by_every_build(monkeypatch):
    nat = natural_gset(symmetric_group(5))
    square = product_gset(nat, nat)
    monkeypatch.setattr(partitions, "DEFAULT_POINT_CAP", 20)
    errors = []
    # P_(2,1) has 30 points, sym^3 has 35, eq6_general(nat, 3) needs P_(2,1),
    # and the square, built under the default cap, has 25
    for build in (lambda: p_mu_gset(nat, (2, 1)), lambda: symmetric_power(nat, 3),
                  lambda: eq6_general(nat, 3), lambda: restrict(square, young_subgroup(2, 5))):
        with pytest.raises(CapExceeded) as exc:
            build()
        errors.append((exc.value.kind, exc.value.cap, exc.value.construction))
    assert errors == [
        ("point-count", 20, "P_(2,1)(natural({1..5}))"),
        ("point-count", 20, "sym^3(natural({1..5}))"),
        ("point-count", 20, "P_(2,1)(natural({1..5}))"),
        ("point-count", 20, "res((natural({1..5})) x (natural({1..5})))"),
    ]


def _fixed_points(group, count):
    """A G-set of count points, each fixed by every element."""
    return GSet.from_point_action(group, range(count), lambda g, p: p)


def _over_cap(composite):
    """A composite of more than DEFAULT_POINT_CAP points over parents under
    it, as a thunk, and the construction its error names."""
    if composite == "product":
        s6 = symmetric_group(6)
        regular = s6.coset_space(s6.canonical_key([s6.identity]))  # 720 points
        return (lambda: product_gset(regular, regular),
                "(coset space G/H, |H|=1) x (coset space G/H, |H|=1)")
    if composite == "union":
        half = _fixed_points(cyclic_group(2), 100_001)
        return lambda: disjoint_union(half, half), "(gset) + (gset)"
    line = _fixed_points(group_closure([], degree=2), 100_001)
    return lambda: induce(line, cyclic_group(2)), "ind(gset)"


@pytest.mark.parametrize("composite", ["product", "union", "induced"])
def test_over_cap_composite_is_refused_before_any_point_is_listed(composite):
    build, construction = _over_cap(composite)
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded) as exc:
            build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (exc.value.kind, exc.value.cap, exc.value.construction) == (
        "point-count", partitions.DEFAULT_POINT_CAP, construction)
    assert peak < 1_000_000


# -------------------------------------------------------------------- refusals


def _usage(*argv):
    """Run the CLI in process; a usage error (exit 2) is raised with its
    output as the message."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    if code == 2:
        raise ValueError(out.getvalue())


def _c3_rotation():
    return parse_permutation("(1 2 3)")


REFUSALS = [
    ("hom-generator-outside",
     lambda: engine.extend_homomorphism(cyclic_group(3), {parse_permutation("(1 2)", 3): _c3_rotation()}, 3),
     r"^generator \(1 2\) is not in the group$"),
    ("hom-mixed-degrees",
     lambda: engine.extend_homomorphism(
         symmetric_group(3),
         {parse_permutation("(1 2)", 3): parse_permutation("(1 2)", 3), _c3_rotation(): parse_permutation("()", 4)},
         3),
     r"^generator images have inconsistent degrees$"),
    ("hom-wrong-degree",
     lambda: engine.extend_homomorphism(cyclic_group(3), {_c3_rotation(): parse_permutation("(1 2 3)", 4)}, 3),
     r"^generator images have degree 4, expected 3$"),
    ("hom-not-generating",
     lambda: engine.extend_homomorphism(
         symmetric_group(3), {parse_permutation("(1 2)", 3): parse_permutation("(1 2)", 3)}, 3),
     r"^gen_images keys do not generate the group$"),
    # C_3's rotation sent to (1 2): the pairs generate a graph of 6
    # elements, more than |C_3|, so it is no map on C_3
    ("hom-graph-past-the-group",
     lambda: engine.extend_homomorphism(cyclic_group(3), {_c3_rotation(): parse_permutation("(1 2)", 3)}, 3),
     r"^generator images do not define a homomorphism"),
    # (1 2) sent to (1 2 3): a graph of 6 elements, within the cap of
    # |S_3|, over a subgroup of 2; that its projection is not one-to-one is
    # reported before that it is not onto
    ("hom-graph-over-a-subgroup",
     lambda: engine.extend_homomorphism(
         symmetric_group(3), {parse_permutation("(1 2)", 3): parse_permutation("(1 2 3)")}, 3),
     r"^generator images do not define a homomorphism$"),
    ("restrict-image-outside",
     lambda: restrict(natural_gset(cyclic_group(3)), symmetric_group(2),
                      {parse_permutation("(1 2)"): parse_permutation("(1 2)", 3)}),
     r"^image \(1 2\) is not in the acting group$"),
    ("product-groups",
     lambda: product_gset(natural_gset(cyclic_group(3)), natural_gset(symmetric_group(3))),
     r"^product requires the same group$"),
    ("union-groups",
     lambda: disjoint_union(natural_gset(cyclic_group(3)), natural_gset(symmetric_group(3))),
     r"^disjoint union requires the same group$"),
    ("symmetric-degree", lambda: symmetric_group(0), r"^degree must be >= 1, got 0$"),
    ("cyclic-degree", lambda: cyclic_group(0), r"^degree must be >= 1, got 0$"),
    ("dihedral-degree", lambda: dihedral_group(2), r"^dihedral group needs n >= 3, got 2$"),
    ("young-block", lambda: young_subgroup(3, 2), r"^need 0 <= i <= n, got i=3, n=2$"),
    ("eq6-power", lambda: eq6_general(natural_gset(symmetric_group(3)), -1), r"^power must be >= 0, got -1$"),
    ("to-schur-off-sn", lambda: burnside_to_schur(BurnsideElement.one(cyclic_group(3))),
     r"^burnside_to_schur needs the full symmetric group$"),
    ("cli-sigma", lambda: _usage("sigma", "--n", "0", "--i", "1"),
     r"^error: need n >= 1 and i >= 0, got n=0, i=1\n$"),
    ("cli-marks", lambda: _usage("marks", "--n", "0"), r"^error: need n >= 1, got n=0\n$"),
    ("cli-verify", lambda: _usage("verify", "--n-max", "0"), r"^error: need n-max >= 1, got 0\n$"),
    ("cli-mul", lambda: _usage("mul", "--n", "0", "--a", "[]", "--b", "[]"),
     r"^error: need n >= 1, got n=0\n$"),
    ("cli-mul-negative", lambda: _usage("mul", "--n", "-3", "--a", "[]", "--b", "[]"),
     r"^error: need n >= 1, got n=-3\n$"),
]


@pytest.mark.parametrize("build, message", [r[1:] for r in REFUSALS], ids=[r[0] for r in REFUSALS])
def test_refusal(build, message):
    with pytest.raises(ValueError, match=message):
        build()
