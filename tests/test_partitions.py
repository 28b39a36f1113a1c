import math

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
    split_factor,
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


def test_split_factor_counts_removals():
    # removing one part 2 from (2, 2, 1): two identical choices
    assert split_factor((2, 2, 1), (2,)) == ((2, 1), 2)
    assert split_factor((2, 2, 1), (2, 1)) == ((2,), 2)
    assert split_factor((3, 1), (2,)) is None
    assert split_factor((3, 1), ()) == ((3, 1), 1)


@given(partitions(6), partitions(3))
def test_split_factor_consistency(mu, lam):
    hit = split_factor(mu, lam)
    if hit is not None:
        rest, count = hit
        assert union(rest, lam) == mu
        assert count >= 1


def test_sort_key_is_conjugate():
    assert sort_key((3, 1)) == conjugate((3, 1))
