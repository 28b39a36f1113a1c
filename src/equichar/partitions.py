"""Integer partitions and the combinatorial constants of the character calculus.

A partition is a plain tuple of weakly decreasing positive ints; ``()`` is
the empty partition.  Everything here is pure and cached where it pays off,
so values can be shared freely between threads.
"""

from functools import cache
from math import comb, factorial
from operator import index


def check_partition(parts) -> tuple[int, ...]:
    """Coerce an iterable of integers to a partition tuple, rejecting invalid
    shapes; a part that is not an integer, such as 2.5 or "3", raises
    TypeError."""
    lam = tuple(map(index, parts))
    for i, a in enumerate(lam):
        if a < 1:
            raise ValueError(f"partition parts must be positive: {lam}")
        if i and lam[i - 1] < a:
            raise ValueError(f"partition parts must be weakly decreasing: {lam}")
    return lam


@cache
def conjugate(lam: tuple[int, ...]) -> tuple[int, ...]:
    """Transpose of the Young diagram: entry i counts the parts exceeding i."""
    if not lam:
        return ()
    return tuple(sum(1 for a in lam if a > i) for i in range(lam[0]))


def union(lam: tuple[int, ...], mu: tuple[int, ...]) -> tuple[int, ...]:
    """Multiset union of the parts, sorted decreasingly."""
    return tuple(sorted(lam + mu, reverse=True))


def part_sum(lam: tuple[int, ...], mu: tuple[int, ...]) -> tuple[int, ...]:
    """Componentwise sum; the shorter partition is padded with zeros."""
    if len(lam) < len(mu):
        lam, mu = mu, lam
    return tuple(a + (mu[i] if i < len(mu) else 0) for i, a in enumerate(lam))


def sort_key(lam: tuple[int, ...]) -> tuple[int, ...]:
    """Key of the column order on partitions of one size: their conjugates,
    compared lexicographically."""
    return conjugate(lam)


@cache
def partitions_of(n: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of n, exactly once, in the column order: conjugates
    compared lexicographically, largest first."""
    if n < 0:
        raise ValueError("n must be non-negative")
    found = []

    def descend(remaining, cap, prefix):
        if remaining == 0:
            found.append(tuple(prefix))
            return
        for part in range(min(cap, remaining), 0, -1):
            prefix.append(part)
            descend(remaining - part, part, prefix)
            prefix.pop()

    descend(n, max(n, 1), [])
    found.sort(key=sort_key, reverse=True)
    return tuple(found)


def multiplicity_vector(lam: tuple[int, ...]) -> dict[int, int]:
    """Map part value j to the number of parts equal to j."""
    out: dict[int, int] = {}
    for a in lam:
        out[a] = out.get(a, 0) + 1
    return out


@cache
def centralizer_order(lam: tuple[int, ...]) -> int:
    """Order of the centralizer of a permutation with cycle type lam."""
    z = 1
    for j, m in multiplicity_vector(lam).items():
        z *= j**m * factorial(m)
    return z


@cache
def irrep_dimension(lam: tuple[int, ...]) -> int:
    """Hook-length dimension of the irreducible module indexed by lam."""
    if not lam:
        raise ValueError("the empty partition does not index an irreducible")
    conj = conjugate(lam)
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            hooks *= row - j + conj[j] - i - 1
    dim, rem = divmod(factorial(sum(lam)), hooks)
    if rem:
        raise ArithmeticError(f"hook product does not divide n! for {lam}")
    return dim


def split_factor(mu, lam):
    """Remove the multiset lam from mu, counting the ways to mark it.

    Returns ``(rest, count)`` with ``count = prod_j C(m_j(mu), m_j(lam))``,
    or None when lam is not contained in mu.  This is exactly the action of
    the normalized power-sum derivative on a monomial.
    """
    mult = multiplicity_vector(mu)
    count = 1
    for j, m in multiplicity_vector(lam).items():
        have = mult.get(j, 0)
        if have < m:
            return None
        count *= comb(have, m)
        mult[j] = have - m
    rest = tuple(sorted((j for j, m in mult.items() for _ in range(m)), reverse=True))
    return rest, count
