import math
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from equichar.partitions import (
    centralizer_order,
    check_partition,
    conjugate,
    irrep_dimension,
    multiplicity_vector,
    partitions_of,
    part_sum,
    sort_key,
    sub_multisets,
    union,
)


def partitions(max_size=8):
    return st.integers(min_value=0, max_value=max_size).flatmap(
        lambda n: st.sampled_from(partitions_of(n))
    )


def test_check_partition_accepts_valid():
    check_partition(())
    check_partition((5,))
    check_partition((4, 2, 2, 1))


@pytest.mark.parametrize("bad", [(0,), (1, 2), (3, -1), (2, 0)])
def test_check_partition_rejects(bad):
    with pytest.raises(ValueError):
        check_partition(bad)


@pytest.mark.parametrize("bad", [(2.5,), ("3", 1.9), (4.9, 1), ("3",), (4.0, 1)])
def test_check_partition_rejects_non_integer_parts(bad):
    """Parts are read with `operator.index`, never truncated by `int`."""
    with pytest.raises(TypeError):
        check_partition(bad)


def test_conjugate_examples():
    assert conjugate((4, 2, 1)) == (3, 2, 1, 1)
    assert conjugate((5,)) == (1, 1, 1, 1, 1)
    assert conjugate((1, 1, 1)) == (3,)
    assert conjugate(()) == ()


@given(partitions())
def test_conjugate_involution(lam):
    assert conjugate(conjugate(lam)) == lam
    assert sum(conjugate(lam)) == sum(lam)


def test_union_merges_multisets():
    assert union((3, 1), (2, 1)) == (3, 2, 1, 1)
    assert union((), (4, 4)) == (4, 4)


@given(partitions(), partitions())
def test_union_commutes(lam, mu):
    assert union(lam, mu) == union(mu, lam)
    assert sum(union(lam, mu)) == sum(lam) + sum(mu)


def test_part_sum_pads():
    assert part_sum((3, 1), (2, 2, 2)) == (5, 3, 2)


def test_compare_column_order():
    # more/taller columns win: (1^n) is the largest partition of n
    assert sort_key((1, 1, 1, 1)) > sort_key((2, 1, 1))
    assert sort_key((2, 1, 1)) > sort_key((2, 2))
    assert sort_key((4,)) < sort_key((3, 1))
    assert sort_key((3, 1)) == sort_key((3, 1))


@given(partitions())
def test_compare_reflexive(lam):
    """The column order ranks lam equal to itself and to no other partition
    of its size."""
    assert [mu for mu in partitions_of(sum(lam)) if sort_key(mu) == sort_key(lam)] == [lam]


def test_partition_counts():
    # classical values of the partition function
    for n, count in [(0, 1), (1, 1), (5, 7), (8, 22), (10, 42)]:
        assert len(partitions_of(n)) == count


def test_partitions_sorted_descending():
    parts = partitions_of(6)
    for a, b in zip(parts, parts[1:]):
        assert sort_key(a) > sort_key(b)
    assert parts[0] == (1, 1, 1, 1, 1, 1)
    assert parts[-1] == (6,)


def test_multiplicity_vector():
    assert multiplicity_vector((4, 2, 2, 1)) == {4: 1, 2: 2, 1: 1}


def test_centralizer_order_small():
    assert centralizer_order((1, 1, 1)) == 6
    assert centralizer_order((3,)) == 3
    assert centralizer_order((2, 1)) == 2
    assert centralizer_order((2, 2, 1)) == 8


@given(partitions())
def test_centralizer_orders_sum_to_factorial(lam):
    n = sum(lam)
    total = sum(
        math.factorial(n) // centralizer_order(mu) for mu in partitions_of(n)
    )
    assert total == math.factorial(n)


def test_irrep_dimensions_s4():
    dims = {lam: irrep_dimension(lam) for lam in partitions_of(4)}
    assert dims == {(4,): 1, (3, 1): 3, (2, 2): 2, (2, 1, 1): 3, (1, 1, 1, 1): 1}


@given(st.integers(min_value=1, max_value=7))
def test_irrep_dimension_squares(n):
    assert sum(irrep_dimension(lam) ** 2 for lam in partitions_of(n)) == math.factorial(n)


def split_factor(mu, lam):
    """Reference for one term of the normalized power-sum derivative: remove
    the multiset lam from mu, counting the ways to mark it.

    Returns ``(rest, count)`` with ``count = prod_j C(m_j(mu), m_j(lam))``,
    or None when lam is not contained in mu.  It tries one given lam, where
    `sub_multisets` walks them all; the derivative references of the other
    test files are built on it.
    """
    mult = multiplicity_vector(mu)
    count = 1
    for j, m in multiplicity_vector(lam).items():
        have = mult.get(j, 0)
        if have < m:
            return None
        count *= math.comb(have, m)
        mult[j] = have - m
    rest = tuple(sorted((j for j, m in mult.items() for _ in range(m)), reverse=True))
    return rest, count


def test_sub_multisets_counts_removals():
    # removing one part 2 from (2, 2, 1): two identical choices
    assert sub_multisets((2, 2, 1), 2) == [((2,), (2, 1), 2)]
    assert sub_multisets((2, 2, 1), 3) == [((2, 1), (2,), 2)]
    assert sub_multisets((3, 1), 2) == []
    assert sub_multisets((3, 1), 0) == [((), (3, 1), 1)]
    assert sub_multisets((), 0) == [((), (), 1)]
    assert sub_multisets((), 1) == [] == sub_multisets((), -1) == sub_multisets((1,), -1)


@given(partitions(6), partitions(3))
def test_sub_multisets_consistency(mu, lam):
    """The walk of size |lam| holds lam exactly when the reference finds it
    in mu, with the reference's rest and count."""
    walk = {nu: (rest, count) for nu, rest, count in sub_multisets(mu, sum(lam))}
    assert walk.get(lam) == split_factor(mu, lam)
    for nu, (rest, count) in walk.items():
        assert union(rest, nu) == mu
        assert count >= 1


@given(partitions(10), st.data())
def test_sub_multisets_match_index_subsets(mu, data):
    """Against brute force: the index subsets of mu with part sum `size`,
    grouped by the multiset of parts they pick, give each lam once, with
    its complement and the number of subsets as the count."""
    size = data.draw(st.integers(min_value=-1, max_value=sum(mu) + 1))
    expected: Counter = Counter()
    for r in range(len(mu) + 1):
        for picked in combinations(range(len(mu)), r):
            if sum(mu[i] for i in picked) == size:
                lam = tuple(mu[i] for i in picked)
                rest = tuple(a for i, a in enumerate(mu) if i not in picked)
                expected[lam, rest] += 1
    walk = sub_multisets(mu, size)
    assert len(walk) == len(expected)
    assert {(lam, rest): count for lam, rest, count in walk} == dict(expected)
    for lam, rest, _ in walk:
        check_partition(lam)
        check_partition(rest)


def test_sort_key_is_conjugate():
    assert sort_key((3, 1)) == conjugate((3, 1))
