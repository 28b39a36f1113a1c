"""Independent-path oracles: monomial expansion, substitution plethysm, and
the Jacobi-Trudi determinant."""

import ast
from collections import Counter
from fractions import Fraction
from functools import cache
from math import factorial, gcd, lcm, prod
from operator import add
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from equichar import oracles
from equichar.oracles import (
    SymmetricPoly,
    _splits,
    eulerian_numbers,
    expand,
    jacobi_trudi_to_powersum,
    keel_betti,
    oracle_plethysm,
)
from equichar.partitions import partitions_of
from equichar.qpoly import QPoly
from equichar.symfunc import POWERSUM, SymFunc, powersum, schur


def partitions(max_size=6, min_size=0):
    return st.integers(min_value=min_size, max_value=max_size).flatmap(
        lambda n: st.sampled_from(partitions_of(n))
    )


def test_power_sum_monomials():
    assert brute_power_sum(2, 3) == {(3, 0): 1, (0, 3): 1}
    # p_3 is m_(3): one dominant monomial
    p = expand(powersum((3,)), 3)
    assert (p.nvars, p.deg, p.num, p.den) == (3, 3, {(3,): 1}, 1)


def test_expand_schur_2_in_two_vars():
    # s_2(x, y) = x^2 + xy + y^2
    assert brute_expand(schur((2,)), 2) == {(2, 0): 1, (1, 1): 1, (0, 2): 1}
    m = expand(schur((2,)), 2)
    assert dominant(m) == {(2,): 1, (1, 1): 1}


def test_expand_antisymmetric_vanishes_below_length():
    # s_(1,1,1) needs three variables; in two it is the zero polynomial
    assert expand(schur((1, 1, 1)), 3).num
    with pytest.raises(ValueError):
        expand(schur((1, 1, 1)), 2)


def test_expand_rejects_q():
    f = QPoly.q() * schur((2,))
    with pytest.raises(ValueError):
        expand(f, 3)


@given(partitions(max_size=5, min_size=2))
def test_expand_is_symmetric(lam):
    # swapping the first two variables permutes monomials, not coefficients
    n = sum(lam)
    m = brute_expand(schur(lam), n)
    swapped = {(exps[1], exps[0]) + exps[2:]: c for exps, c in m.items()}
    assert swapped == m
    # and the oracle holds the coefficient of every orbit
    assert dominant(expand(schur(lam), n)) == brute_dominant(m, n)


@given(partitions(max_size=4, min_size=1), partitions(max_size=4, min_size=1))
@settings(deadline=None)
def test_expand_multiplicative(lam, mu):
    nvars = sum(lam) + sum(mu)
    f, g = schur(lam), schur(mu)
    assert expand(f * g, nvars) == expand(f, nvars) * expand(g, nvars)


def test_oracle_plethysm_symmetric_square():
    # h_2 of a two-variable alphabet {x^2, xy, y^2}... use 4 vars for s_2 o s_2
    direct = oracle_plethysm(schur((2,)), schur((2,)), 4)
    kernel = expand(schur((2,)).pleth(schur((2,))), 4)
    assert direct == kernel


def test_oracle_plethysm_needs_as_many_variables_as_the_degree():
    # s_2 o s_2 has degree 4: in 2 or 3 variables it would lose terms
    for nvars in (2, 3):
        with pytest.raises(ValueError, match="need at least 4 variables"):
            oracle_plethysm(schur((2,)), schur((2,)), nvars)
    assert oracle_plethysm(schur((2,)), schur((2,)), 4).deg == 4


def test_oracle_plethysm_requires_positive_inner():
    # s_2 - 2 s_(1,1) expands with coefficient -1 on x1*x2: substitution
    # needs a genuine multiset alphabet, so this must be rejected
    bad = schur((2,)) - 2 * schur((1, 1))
    with pytest.raises(ValueError):
        oracle_plethysm(schur((1,)), bad, 4)


def test_jacobi_trudi_small():
    assert jacobi_trudi_to_powersum((2, 1)).terms == {
        (1, 1, 1): Fraction(1, 3),
        (3,): Fraction(-1, 3),
    }
    assert jacobi_trudi_to_powersum(()) == SymFunc(POWERSUM, 0, {(): 1})


def test_jacobi_trudi_matches_character_path():
    # every shape up to degree 10: tall ones (lam_1 < len) take the dual
    # e-determinant, the others, lam_1 = len included, the h-determinant
    shapes = [lam for n in range(11) for lam in partitions_of(n)]
    assert any(lam[0] < len(lam) for lam in shapes[1:])
    assert any(lam[0] == len(lam) for lam in shapes[1:])
    for lam in shapes:
        assert jacobi_trudi_to_powersum(lam) == schur(lam).to_powersum(), lam


def test_symmetric_poly_algebra():
    a = expand(powersum((1,)), 3)
    b = expand(schur(()).scale(Fraction(2)), 3)
    assert (b.deg, b.num, b.den) == (0, {(): 2}, 1)
    assert (a * b).num == {(1,): 2}
    zero = expand(schur((1,)) - schur((1,)), 3)
    assert not zero.num and zero.deg == 0
    assert not (a * zero).num and not (zero * a).num


def test_product_beyond_nvars_or_across_nvars_raises():
    x = expand(schur((2,)), 3)
    # degree 4 in 3 variables: m_(1,1,1,1) would have no monomial
    with pytest.raises(ValueError, match="need at least 4 variables"):
        x * x
    with pytest.raises(ValueError, match="need at least 4 variables"):
        x * expand(schur((1, 1)), 3)
    with pytest.raises(ValueError, match="variable counts differ"):
        expand(schur((1,)), 3) * expand(schur((1,)), 4)
    with pytest.raises(ValueError, match="variable counts differ"):
        expand(schur((1,)), 4) * expand(schur((1,)), 3)


def test_keel_and_eulerian_small_values():
    assert keel_betti(6) == (1, 16, 16, 1)
    assert keel_betti(8) == (1, 99, 715, 715, 99, 1)
    assert eulerian_numbers(4) == (1, 11, 11, 1)
    assert sum(eulerian_numbers(7)) == 5040
    with pytest.raises(ValueError):
        keel_betti(2)


def test_oracle_plethysm_catches_a_wrong_kernel():
    wrong = schur((2,)).pleth(schur((2,))) + schur((4,)).to_powersum()
    assert expand(wrong, 4) != oracle_plethysm(schur((2,)), schur((2,)), 4)


def test_expand_rational_powersum_combination():
    # e_3 = p_111/6 - p_21/2 + p_3/3, denominators 2 and 3
    e3 = SymFunc(
        POWERSUM, 3,
        {(1, 1, 1): Fraction(1, 6), (2, 1): Fraction(-1, 2), (3,): Fraction(1, 3)},
    )
    m = expand(e3, 4)
    assert m == expand(schur((1, 1, 1)), 4)
    assert (m.num, m.den) == ({(1, 1, 1): 1}, 1)
    assert brute_expand(e3, 4) == {(0, 1, 1, 1): 1, (1, 0, 1, 1): 1, (1, 1, 0, 1): 1, (1, 1, 1, 0): 1}


# -- the oracles share no code with the kernel's conversions ----------------

KERNEL_CONVERSION = {
    "pack", "unpack", "pack_terms", "convert_packed", "change_basis",
    "_table", "_convert_leg", "character_value",
}


def referenced_names(source):
    """Every name, attribute, imported name and string constant in source; a
    string constant covers getattr(x, "name"), and a star import reads as "*"."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
            yield node.asname
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_oracles_reference_no_kernel_conversion():
    for bad in ("x.pack(3)", "getattr(q, 'unpack')", "from .symfunc import _table as t",
                "from .symfunc import *", "y = change_basis"):
        assert set(referenced_names(bad)) & (KERNEL_CONVERSION | {"*"}), bad
    names = set(referenced_names(Path(oracles.__file__).read_text()))
    assert {"_mul", "_splits", "SymmetricPoly"} <= names
    assert not names & (KERNEL_CONVERSION | {"*"})


# -- the brute reference: exponent tuples in all N variables -----------------


def brute_power_sum(nvars, a):
    return {tuple(a if j == i else 0 for j in range(nvars)): 1 for i in range(nvars)}


def brute_mul(p, q):
    """The product of two {exponent tuple: coefficient} dicts, monomial by monomial."""
    out = {}
    for v1, c1 in p.items():
        for v2, c2 in q.items():
            vec = tuple(map(add, v1, v2))
            out[vec] = out.get(vec, 0) + c1 * c2
    return {vec: c for vec, c in out.items() if c}


def brute_adams(p, a):
    """Substitute x_i -> x_i^a."""
    return {tuple(a * e for e in vec): c for vec, c in p.items()}


@cache
def brute_power_product(nvars, lam):
    """Product of power sums over a fixed variable count, shared by suffix."""
    if not lam:
        return {(0,) * nvars: 1}
    return brute_mul(brute_power_sum(nvars, lam[0]), brute_power_product(nvars, lam[1:]))


def brute_powersum_sum(fp, product):
    """The sum of c * product(lam) over the terms c p_lam of a q-free fp."""
    total = {}
    for lam, c in fp.terms.items():
        c = c.coeff(0)
        for vec, v in product(lam).items():
            total[vec] = total.get(vec, 0) + c * v
    return {vec: c for vec, c in total.items() if c}


def brute_expand(f, nvars):
    return brute_powersum_sum(f.to_powersum(), lambda lam: brute_power_product(nvars, lam))


def brute_plethysm(f, g, nvars):
    """p_a of the alphabet of g's monomials is the Adams operation x_i -> x_i^a."""
    gm = brute_expand(g, nvars)
    assert all(c > 0 and c.denominator == 1 for c in gm.values())
    gm = {vec: c.numerator for vec, c in gm.items()}
    powers = {}

    def product(lam):
        out = {(0,) * nvars: 1}
        for a in lam:
            if a not in powers:
                powers[a] = brute_adams(gm, a)
            out = brute_mul(out, powers[a])
        return out

    return brute_powersum_sum(f.to_powersum(), product)


def orbit_size(vec):
    """The number of distinct rearrangements of vec."""
    return factorial(len(vec)) // prod(map(factorial, Counter(vec).values()))


def brute_dominant(poly, nvars):
    """The coefficients of the dominant monomials of a brute expansion in
    nvars variables, keyed by partition, after checking that the expansion
    is constant on every orbit: each monomial carries its dominant one's
    coefficient, and each orbit that occurs occurs whole."""
    tops = Counter(tuple(sorted(vec, reverse=True)) for vec in poly)
    for vec, c in poly.items():
        assert len(vec) == nvars and poly.get(tuple(sorted(vec, reverse=True))) == c, vec
    for top, count in tops.items():
        assert count == orbit_size(top), top
    return {tuple(x for x in top if x): Fraction(poly[top]) for top in tops}


def dominant(m):
    """The oracle's dominant coefficients as Fractions, after checking that
    its numerators are nonzero, keyed by partitions of its degree, and in
    lowest terms over a positive denominator."""
    assert m.den > 0 and gcd(m.den, *m.num.values()) == 1 and all(m.num.values())
    assert set(m.num) <= set(partitions_of(m.deg))
    return {gam: Fraction(v, m.den) for gam, v in m.num.items()}


def matches_brute(m, poly, nvars):
    """m agrees with the brute expansion poly in nvars variables."""
    deg = max(map(sum, poly), default=0)
    return m.nvars == nvars and m.deg == deg and dominant(m) == brute_dominant(poly, nvars)


def brute_splits(gam, e):
    """The structure constants by walking every vector 0 <= b <= gam with |b| = e."""
    found = {}
    tail = [sum(gam[i:]) for i in range(len(gam) + 1)]

    def walk(i, left, b):
        if i == len(gam):
            if left == 0:
                alpha = tuple(sorted((x for x in b if x), reverse=True))
                beta = tuple(sorted((g - x for g, x in zip(gam, b) if g != x), reverse=True))
                row = found.setdefault(alpha, {})
                row[beta] = row.get(beta, 0) + 1
            return
        for x in range(max(0, left - tail[i + 1]), min(gam[i], left) + 1):
            walk(i + 1, left - x, b + [x])

    walk(0, e, [])
    return {alpha: tuple(row.items()) for alpha, row in found.items()}


def test_splits_match_the_vector_walk():
    assert _splits((), 0) == {(): (((), 1),)}
    assert _splits((), 1) == {} == _splits((), -1)
    for d in range(11):
        for gam in partitions_of(d):
            for e in range(-1, d + 2):
                got = {alpha: dict(row) for alpha, row in _splits(gam, e).items()}
                assert got == {alpha: dict(row) for alpha, row in brute_splits(gam, e).items()}, (gam, e)


def test_expand_matches_brute_reference():
    for n in range(7):
        for lam in partitions_of(n):
            for nvars in (n, n + 1):
                assert matches_brute(expand(schur(lam), nvars), brute_expand(schur(lam), nvars), nvars)


def test_expand_matches_brute_reference_on_rational_combinations():
    # denominators that do not cancel, and a sum that cancels to zero
    f = schur((2, 1)) - Fraction(1, 3) * schur((1, 1, 1)) + Fraction(5, 2) * schur((3,))
    for g in (f, f - f, powersum((2, 1)), powersum((3,)).scale(Fraction(-7, 6))):
        assert matches_brute(expand(g, 4), brute_expand(g, 4), 4)


def test_oracle_plethysm_matches_brute_reference():
    # every pair of degrees a, b with ab <= 6, the constant s_() included
    for a in range(7):
        for b in range(7):
            if a * b > 6:
                continue
            nvars = max(a * b, b)
            for lam in partitions_of(a):
                for mu in partitions_of(b):
                    f, g = schur(lam), schur(mu)
                    direct = oracle_plethysm(f, g, nvars)
                    assert matches_brute(direct, brute_plethysm(f, g, nvars), nvars)


@pytest.mark.parametrize("lam, mu", [((2,), (2, 1, 1)), ((1, 1), (4,)), ((2, 2), (1, 1))])
def test_oracle_plethysm_matches_brute_reference_in_degree_8(lam, mu):
    f, g = schur(lam), schur(mu)
    assert matches_brute(oracle_plethysm(f, g, 8), brute_plethysm(f, g, 8), 8)


# -- symmetric values compare on dominant monomials -------------------------


def test_symmetric_value_equals_its_rebuilt_monomials():
    """The value rebuilt from the dominant monomials of the brute expansion
    equals the oracle's."""
    f = schur((2, 1)) + Fraction(1, 3) * schur((1, 1, 1))
    for nvars in (3, 5):
        coeffs = brute_dominant(brute_expand(f, nvars), nvars)
        den = lcm(*(c.denominator for c in coeffs.values()))
        rebuilt = SymmetricPoly(nvars, 3, {gam: int(c * den) for gam, c in coeffs.items()}, den)
        assert expand(f, nvars) == rebuilt
        assert rebuilt == expand(f, nvars)


def test_symmetric_values_differ_in_one_dominant_coefficient_or_d_or_nvars():
    f = schur((4,)) + schur((2, 2))
    base = expand(f, 4)
    # s_(1,1,1,1) is m_(1,1,1,1): one dominant coefficient moves
    one_more = expand(f + schur((1, 1, 1, 1)), 4)
    assert base.den == one_more.den and base.num.keys() == one_more.num.keys()
    assert sum(base.num[gam] != one_more.num[gam] for gam in base.num) == 1
    # half of f has the same numerators over twice the denominator
    half = expand(f.scale(Fraction(1, 2)), 4)
    assert half.num == base.num and half.den == 2 * base.den
    wider = expand(f, 5)
    assert wider.num == base.num and wider.den == base.den
    for other in (one_more, half, wider):
        assert base != other and other != base
    assert expand(f, 4) == base


def test_symmetric_product_equals_the_full_monomial_product():
    """Two symmetric values multiply on dominant monomials in as many
    variables as the degree of the product; the product of their brute
    expansions is the same, and in fewer variables the product raises."""
    values = [
        schur((2, 1)) + Fraction(1, 3) * schur((1, 1, 1)),
        schur((2,)).scale(Fraction(5, 2)),
        schur((1,)),
        schur(()),
        schur((2, 1)) - schur((2, 1)),
        powersum((2, 1)),
    ]
    for f in values:
        for g in values:
            deg = f.degree + g.degree
            for n in range(max(f.degree, g.degree, deg - 1), deg + 2):
                x, y = expand(f, n), expand(g, n)
                # a zero value has degree 0
                if n < x.deg + y.deg:
                    with pytest.raises(ValueError):
                        x * y
                    continue
                got = x * y
                if n >= deg:
                    assert got == expand(f * g, n)
                full = brute_mul(brute_expand(f, n), brute_expand(g, n))
                assert matches_brute(got, full, n)
    x = expand(schur((1, 1)), 2)
    with pytest.raises(ValueError):
        x * x
