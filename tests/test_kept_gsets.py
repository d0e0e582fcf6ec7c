"""Verified G-sets are kept on their parent: a group keeps its natural set
and its coset spaces, a G-set its symmetric powers and block-tuple sets.
Each is built and verified once, every cap is read again on every use,
and a kept set lives and dies with its parent."""

import gc
import json
import weakref
from collections import Counter
from math import comb, factorial, prod

import pytest

import burnside
from burnside import cli, engine, partitions, ring
from burnside.engine import (
    CapExceeded,
    GSet,
    burnside_to_schur,
    cyclic_group,
    decompose,
    dihedral_group,
    eq6_general,
    group_closure,
    lambda_general,
    natural_gset,
    p_mu_gset,
    symmetric_group,
    symmetric_power,
    young_subgroup,
)
from burnside.partitions import Partition, _points, enumerate_partitions
from burnside.schur import sigma


def _fresh(group):
    """A new group object with the same elements, so nothing is kept on it
    yet, whatever earlier tests built over the cached named groups."""
    return group_closure(group.generators(), degree=group.degree)


def _constructions(group):
    """One of each kept construction over group, as thunks: the natural
    set, a symmetric power and a block-tuple set of it, and a coset space."""
    trivial = group._canonical_key(frozenset([group.index_of(group.identity)]))
    return [
        lambda: natural_gset(group),
        lambda: symmetric_power(natural_gset(group), 3),
        lambda: p_mu_gset(natural_gset(group), (2, 1)),
        lambda: group.coset_space(trivial),
    ]


def test_a_repeated_construction_returns_the_kept_set():
    group = _fresh(dihedral_group(5))
    nat = natural_gset(group)
    assert natural_gset(group) is nat
    assert symmetric_power(nat, 2) is symmetric_power(nat, 2)
    # a block-tuple set is keyed by Partition(mu), however mu is spelled
    assert p_mu_gset(nat, [2, 1]) is p_mu_gset(nat, Partition((2, 1)))
    key = group._canonical_key(frozenset([0]))
    assert group.coset_space(list(key)) is group.coset_space(key)
    # distinct constructions and distinct parents are not shared
    assert symmetric_power(nat, 1) is not p_mu_gset(nat, (1,))
    assert symmetric_power(symmetric_power(nat, 1), 2) is not symmetric_power(nat, 2)
    assert natural_gset(_fresh(group)) is not nat


def test_each_construction_is_verified_once(monkeypatch):
    verified = Counter()
    real = GSet._verify_action

    def counted(self):
        verified[self.label] += 1
        real(self)

    monkeypatch.setattr(GSet, "_verify_action", counted)
    group = _fresh(symmetric_group(4))
    nat = natural_gset(group)
    for _ in range(3):
        assert lambda_general(nat, 3) == eq6_general(nat, 3)
        assert burnside_to_schur(decompose(symmetric_power(nat, 2))) == sigma(2, 4)
    built = {"natural({1..4})"} | {f"sym^{m}(natural({{1..4}}))" for m in (1, 2, 3)}
    built |= {f"P_({','.join(map(str, mu))})(natural({{1..4}}))" for mu in enumerate_partitions(3)}
    # the products of lambda_general multiply coset spaces, each kept too
    assert built <= set(verified)
    assert all(label.startswith("coset space") for label in set(verified) - built)
    assert set(verified.values()) == {1}
    # a caller's own action is verified on every call
    for _ in range(2):
        GSet.from_point_action(group, [1, 2, 3, 4], lambda g, p: g(p), label="caller")
    assert verified["caller"] == 2


def test_a_kept_set_is_decomposed_once(monkeypatch):
    sweeps = Counter()
    real = engine.orbits

    def counted(s):
        sweeps[s.label] += 1
        return real(s)

    monkeypatch.setattr(engine, "orbits", counted)
    kept = symmetric_power(natural_gset(_fresh(symmetric_group(4))), 2)
    first = decompose(kept)
    assert decompose(kept) is first
    assert sweeps == {kept.label: 1}
    # the kept answer is the decomposition of a fresh copy over the same rows
    copy = GSet.from_point_action(kept.group, kept.points,
                                  engine.Rows(lambda gset, k: kept.row(k)), label="copy")
    assert decompose(copy) == first
    assert sweeps == {kept.label: 1, "copy": 1}


@pytest.mark.parametrize("cap, value, kind", [("DEFAULT_POINT_CAP", 20, "point-count"),
                                              ("TABLE_CAP", 1000, "table-entries")])
def test_a_lowered_cap_refuses_a_kept_set_as_a_fresh_build(monkeypatch, cap, value, kind):
    kept = _fresh(symmetric_group(5))
    for build in _constructions(kept):
        build()
    fresh = _fresh(kept)

    def errors(group):
        out = []
        for build in _constructions(group):
            try:
                build()
            except CapExceeded as exc:
                out.append((exc.kind, exc.cap, exc.construction))
        return out

    monkeypatch.setattr(partitions, cap, value)
    # the natural set's 5 points and 600 entries pass; sym^3 (35 points),
    # P_(2,1) (30) and the regular coset space (120) do not
    expected = [(kind, value, label) for label in (
        "sym^3(natural({1..5}))", "P_(2,1)(natural({1..5}))", "coset space G/H, |H|=1")]
    assert errors(fresh) == expected
    assert errors(kept) == expected
    monkeypatch.undo()
    assert [build().size for build in _constructions(kept)] == [5, 35, 30, 120]


def test_kept_sets_die_with_their_group():
    group = _fresh(cyclic_group(6))
    kept = [build() for build in _constructions(group)]
    assert lambda_general(natural_gset(group), 2) == eq6_general(natural_gset(group), 2)
    refs = [weakref.ref(x) for x in [group, *kept]]
    del group, kept
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)


CROSS_GROUPS = [
    ("S3", lambda: symmetric_group(3)),
    ("S4", lambda: symmetric_group(4)),
    ("S5", lambda: symmetric_group(5)),
    ("C6", lambda: cyclic_group(6)),
    ("D5", lambda: dihedral_group(5)),
]


@pytest.mark.parametrize("make", [m for _, m in CROSS_GROUPS], ids=[n for n, _ in CROSS_GROUPS])
def test_cross_route_identities_hold_across_repeated_calls(make):
    group = make()
    n = group.degree
    first = {}
    for _ in range(3):
        nat = natural_gset(group)
        for i in range(1, 4):
            lam = lambda_general(nat, i)
            assert lam == eq6_general(nat, i)
            assert lam.cardinality() == comb(n, i)
            sym = decompose(symmetric_power(nat, i))
            assert sym.cardinality() == comb(n + i - 1, i)
            if group.is_full_symmetric():
                assert burnside_to_schur(sym) == sigma(i, n)
            assert first.setdefault(i, (lam, sym)) == (lam, sym)


def test_clear_caches_drops_the_named_groups_and_keeps_answers():
    before = symmetric_group(4)
    nat = natural_gset(before)
    answers = [lambda_general(nat, 2).to_json(), decompose(symmetric_power(nat, 3)).to_json()]
    burnside.clear_caches()
    cached = (symmetric_group, cyclic_group, dihedral_group, young_subgroup)
    assert [f.cache_info().currsize for f in cached] == [0] * len(cached)
    after = symmetric_group(4)
    assert after is not before and after == before
    assert natural_gset(after) is not nat
    nat = natural_gset(after)
    assert [lambda_general(nat, 2).to_json(), decompose(symmetric_power(nat, 3)).to_json()] == answers


def test_full_symmetric_is_decided_without_the_factorial_of_the_degree():
    assert all(symmetric_group(n).is_full_symmetric() for n in range(1, 6))
    assert not any(g.is_full_symmetric() for g in (
        cyclic_group(4), dihedral_group(4), young_subgroup(2, 4),
        group_closure([], degree=2), group_closure([engine.parse_permutation("(1 2)", 50)]),
    ))
    assert _fresh(cyclic_group(2)).is_full_symmetric()  # C_2 is S_2
    assert _fresh(dihedral_group(3)).is_full_symmetric()  # D_3 is S_3


def test_a_large_degree_oracle_forms_no_large_factorial(monkeypatch, tmp_path, capsys):
    # a group of order 2 on 50,000 points: deciding "full symmetric" and
    # sizing P_(1) padded to 50,000 need no factorial of the degree
    def refuse(m):
        if m > 100:
            raise AssertionError(f"factorial({m}) formed")
        return factorial(m)

    monkeypatch.setattr(partitions, "factorial", refuse)
    monkeypatch.setattr(engine, "factorial", refuse, raising=False)
    _points.cache_clear()
    # P_(1) of 50,000 points grows the shared prime table; growing a copy
    # leaves the table later tests start from as it was
    monkeypatch.setattr(ring, "_PRIMES", ring._PRIMES[:])
    big = tmp_path / "big.grp"
    big.write_text("degree 50000\n(1 2)\n")
    code = cli.main(["oracle", "--group", str(big), "--i", "1", "--format", "structured"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["payload"]["equal"] is True
    for n in range(13):
        for mu in enumerate_partitions(n):
            assert _points(mu) == factorial(n) // prod(map(factorial, mu))
