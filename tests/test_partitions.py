"""Partition combinatorics against independent oracles.

The partition counts come from a coin-style DP that never touches the
enumeration code, so the two implementations can only agree by being right.
"""

import pytest

from burnside.partitions import (
    Partition,
    alpha,
    enumerate_partitions,
    format_partition,
    multinomial,
    pad,
    parse_partition,
)
from burnside.ring import closed_terms


def partition_counts(limit):
    """p(0..limit) by counting sums of parts 1..limit, one part size at a
    time (classic bounded-coin recurrence)."""
    counts = [1] + [0] * limit
    for part in range(1, limit + 1):
        for total in range(part, limit + 1):
            counts[total] += counts[total - part]
    return counts


# p(1)..p(12), the values the enumeration must reproduce
PARTITION_NUMBERS = [1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]


def test_partition_count_oracle_is_selfconsistent():
    assert partition_counts(12)[1:] == PARTITION_NUMBERS


def test_enumeration_counts_match_oracle():
    counts = partition_counts(12)
    for i in range(13):
        assert len(enumerate_partitions(i)) == counts[i]


def test_enumeration_small_cases():
    assert enumerate_partitions(0) == [Partition(())]
    assert enumerate_partitions(1) == [Partition((1,))]
    assert enumerate_partitions(4) == [
        Partition((4,)),
        Partition((3, 1)),
        Partition((2, 2)),
        Partition((2, 1, 1)),
        Partition((1, 1, 1, 1)),
    ]
    assert len(enumerate_partitions(8)) == 22


def test_enumeration_rejects_negative():
    with pytest.raises(ValueError):
        enumerate_partitions(-1)


def test_enumeration_is_strictly_descending_lex():
    for i in range(1, 13):
        parts = enumerate_partitions(i)
        assert all(p.weight == i for p in parts)
        assert len(set(parts)) == len(parts)
        for a, b in zip(parts, parts[1:]):
            assert a > b


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((3, 0))
    with pytest.raises(ValueError):
        Partition((2, -1))
    mu = Partition((3, 1, 1))
    assert mu.weight == 5
    assert len(mu) == 3


def test_alpha_run_lengths():
    assert alpha((3, 3, 2, 1, 1, 1)) == (2, 1, 3)
    assert alpha((5,)) == (1,)
    assert alpha((1, 1, 1, 1)) == (4,)
    assert alpha(()) == ()


def test_alpha_sums_to_length():
    for i in range(1, 11):
        for mu in enumerate_partitions(i):
            assert sum(alpha(mu)) == len(mu)


def test_multinomial_examples():
    assert multinomial((3, 3, 2, 1, 1, 1)) == 60
    assert multinomial((7,)) == 1
    assert multinomial((2, 1)) == 2


def test_multinomial_empty():
    # the empty partition has one ordering, so λ^0 is its one term, the unit
    assert multinomial(()) == 1
    assert list(closed_terms(0)) == [((), 1)]


def test_multinomial_is_one_iff_single_run():
    for i in range(1, 11):
        for mu in enumerate_partitions(i):
            value = multinomial(mu)
            assert value >= 1
            assert (value == 1) == (len(alpha(mu)) == 1)


def test_pad_examples():
    assert pad(Partition((1, 1)), 4) == Partition((2, 1, 1))
    assert pad(Partition((2,)), 2) == Partition((2,))
    assert pad(Partition((3, 1)), 10) == Partition((6, 3, 1))
    with pytest.raises(ValueError):
        pad(Partition((3, 1)), 3)


def test_pad_multiset_property():
    for i in range(0, 9):
        for mu in enumerate_partitions(i):
            for n in range(i, 11):
                padded = pad(mu, n)
                assert padded.weight == n
                if n > i:
                    assert sorted(padded) == sorted(tuple(mu) + (n - i,))
                else:
                    assert padded == mu


def test_serialization_round_trip():
    assert format_partition(Partition((3, 1, 1))) == "[3,1,1]"
    assert parse_partition("[3,1,1]") == Partition((3, 1, 1))
    assert parse_partition("[]") == Partition(())
    assert format_partition(Partition(())) == "[]"
    for i in range(0, 9):
        for mu in enumerate_partitions(i):
            assert parse_partition(format_partition(mu)) == mu
    with pytest.raises(ValueError):
        parse_partition("[2,3]")
    with pytest.raises(ValueError):
        parse_partition("[a]")


def test_enumerate_with_max_parts_is_the_filtered_list():
    for i in range(0, 26):
        full = enumerate_partitions(i)
        for k in range(0, i + 2):
            assert enumerate_partitions(i, max_parts=k) == [
                mu for mu in full if len(mu) <= k
            ], (i, k)
    assert enumerate_partitions(5, max_parts=0) == []
    assert enumerate_partitions(0, max_parts=0) == [Partition()]
    with pytest.raises(ValueError):
        enumerate_partitions(5, max_parts=-1)


def test_enumerated_partitions_equal_checked_ones():
    # enumerate_partitions builds its results unchecked; each must be the
    # partition the checked constructor builds from the same parts
    for i in range(16):
        for k in [None] + list(range(i + 1)):
            for mu in enumerate_partitions(i, max_parts=k):
                assert type(mu) is Partition
                assert mu == Partition(tuple(mu))
                for n in (i, i + 1, i + 3):
                    assert pad(mu, n) == pad(tuple(mu), n) == Partition(pad(mu, n))


def test_checked_entry_points_still_reject_bad_parts():
    for bad in ((1, 2), (2, 3, 1), (2, 0), (3, -1), (0,)):
        with pytest.raises(ValueError):
            Partition(bad)
        with pytest.raises(ValueError):
            pad(bad, 10)
        with pytest.raises(ValueError):
            parse_partition("[" + ",".join(map(str, bad)) + "]")
