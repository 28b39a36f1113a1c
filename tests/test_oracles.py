"""Independent-path oracles: monomial expansion, substitution plethysm, and
the Jacobi-Trudi determinant."""

from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from equichar.oracles import (
    MonomialPoly,
    _make,
    _orbits,
    _splits,
    eulerian_numbers,
    expand,
    jacobi_trudi_to_powersum,
    keel_betti,
    oracle_plethysm,
)
from equichar.partitions import partitions_of
from equichar.qpoly import QPoly
from equichar.symfunc import POWERSUM, SCHUR, SymFunc, powersum, schur


def partitions(max_size=6, min_size=0):
    return st.integers(min_value=min_size, max_value=max_size).flatmap(
        lambda n: st.sampled_from(partitions_of(n))
    )


def test_power_sum_monomials():
    p = MonomialPoly.power_sum(2, 3)
    assert p.terms == {(3, 0): Fraction(1), (0, 3): Fraction(1)}


def test_expand_schur_2_in_two_vars():
    # s_2(x, y) = x^2 + xy + y^2
    m = expand(schur((2,)), 2)
    assert m.terms == {
        (2, 0): Fraction(1),
        (1, 1): Fraction(1),
        (0, 2): Fraction(1),
    }


def test_expand_antisymmetric_vanishes_below_length():
    # s_(1,1,1) needs three variables; in two it is the zero polynomial
    assert expand(schur((1, 1, 1)), 3).is_zero() is False
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
    m = expand(schur(lam), n)
    swapped = {}
    for exps, c in m.terms.items():
        key = (exps[1], exps[0]) + exps[2:]
        swapped[key] = c
    assert swapped == m.terms


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


def test_monomial_poly_algebra():
    a = MonomialPoly.power_sum(3, 1)
    b = MonomialPoly.constant(3, Fraction(2))
    assert (a + b).terms[(0, 0, 0)] == Fraction(2)
    assert (a * b).terms[(1, 0, 0)] == Fraction(2)
    assert a.scale(Fraction(0)).is_zero()


def test_keel_and_eulerian_small_values():
    assert keel_betti(6) == (1, 16, 16, 1)
    assert keel_betti(8) == (1, 99, 715, 715, 99, 1)
    assert eulerian_numbers(4) == (1, 11, 11, 1)
    assert sum(eulerian_numbers(7)) == 5040
    with pytest.raises(ValueError):
        keel_betti(2)



# -- the packed representation ----------------------------------------------

NVARS = 3
rationals = st.builds(
    Fraction, st.integers(min_value=-12, max_value=12), st.sampled_from([1, 2, 3, 4, 6, 9])
)
monomial_polys = st.dictionaries(
    st.tuples(*[st.integers(min_value=0, max_value=4)] * NVARS), rationals, max_size=6
).map(lambda terms: MonomialPoly(NVARS, terms))


def reference_mul_add(a, b, c):
    """a * b + c on exponent tuples and Fractions, term by term."""
    out = dict(c.terms)
    for v1, c1 in a.terms.items():
        for v2, c2 in b.terms.items():
            vec = tuple(x + y for x, y in zip(v1, v2))
            out[vec] = out.get(vec, 0) + c1 * c2
    return {vec: c for vec, c in out.items() if c}


@given(monomial_polys, monomial_polys, monomial_polys)
def test_packed_form_round_trips(a, b, c):
    r = a * b + c
    assert r.terms == reference_mul_add(a, b, c)
    rebuilt = MonomialPoly(NVARS, r.terms)
    assert rebuilt == r
    assert rebuilt.terms == r.terms


def test_exponent_outside_a_slot_raises():
    top = MonomialPoly.MAX_EXPONENT
    x = MonomialPoly(2, {(1, 0): 1})
    for vec in ((top + 1, 0), (0, -1), (0, 2**40)):
        with pytest.raises(ValueError):
            MonomialPoly(2, {vec: 1})
    with pytest.raises(ValueError):
        MonomialPoly.power_sum(2, top + 1)
    high = MonomialPoly(2, {(top - 1, 0): Fraction(1, 2)})
    assert (high * x).terms == {(top, 0): Fraction(1, 2)}
    # x^top * x would carry into the slot of the second variable
    with pytest.raises(ValueError):
        high * x * x
    # the check is on total degree, not on one exponent
    half = top // 2 + 1
    with pytest.raises(ValueError):
        MonomialPoly(2, {(half, 0): 1}) * MonomialPoly(2, {(0, half): 1})
    with pytest.raises(ValueError):
        MonomialPoly(2, {(half, 0): 1}).adams(2)


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
    assert m.terms == {(0, 1, 1, 1): 1, (1, 0, 1, 1): 1, (1, 1, 0, 1): 1, (1, 1, 1, 0): 1}


# -- the brute reference: sparse products in all N variables ----------------


@cache
def brute_power_product(nvars, lam):
    """Product of power sums over a fixed variable count, shared by suffix."""
    if not lam:
        return MonomialPoly.constant(nvars, 1)
    return MonomialPoly.power_sum(nvars, lam[0]) * brute_power_product(nvars, lam[1:])


def brute_powersum_sum(fp, nvars, product):
    """The sum of c * product(lam) over the terms c p_lam of a q-free fp."""
    total = MonomialPoly(nvars)
    for lam, c in fp.terms.items():
        total = total + product(lam).scale(c.coeff(0))
    return total


def brute_expand(f, nvars):
    return brute_powersum_sum(
        f.to_powersum(), nvars, lambda lam: brute_power_product(nvars, lam)
    )


def brute_plethysm(f, g, nvars):
    """p_a of the alphabet of g's monomials is the Adams operation x_i -> x_i^a."""
    gm = brute_expand(g, nvars)
    powers = {}

    def product(lam):
        prod = MonomialPoly.constant(nvars, 1)
        for a in lam:
            if a not in powers:
                powers[a] = gm.adams(a)
            prod = prod * powers[a]
        return prod

    return brute_powersum_sum(f.to_powersum(), nvars, product)


def brute_splits(gam, e):
    """The structure constants by walking every vector 0 <= b <= gam with |b| = e."""
    found = {}
    tail = [sum(gam[i:]) for i in range(len(gam) + 1)]

    def walk(i, left, b):
        if i == len(gam):
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
    for d in range(11):
        for gam in partitions_of(d):
            for e in range(-1, d + 2):
                got = {alpha: dict(row) for alpha, row in _splits(gam, e).items()}
                assert got == {alpha: dict(row) for alpha, row in brute_splits(gam, e).items()}, (gam, e)


def fields(m):
    return m.nvars, m.deg, m._d, m._c


def test_expand_matches_brute_reference():
    for n in range(7):
        for lam in partitions_of(n):
            for nvars in (n, n + 1):
                assert fields(expand(schur(lam), nvars)) == fields(brute_expand(schur(lam), nvars))


def test_expand_matches_brute_reference_on_rational_combinations():
    # denominators that do not cancel, and a sum that cancels to zero
    f = schur((2, 1)) - Fraction(1, 3) * schur((1, 1, 1)) + Fraction(5, 2) * schur((3,))
    for g in (f, f - f, powersum((2, 1)), powersum((3,)).scale(Fraction(-7, 6))):
        assert fields(expand(g, 4)) == fields(brute_expand(g, 4))


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
                    assert fields(direct) == fields(brute_plethysm(f, g, nvars))


@pytest.mark.parametrize("lam, mu", [((2,), (2, 1, 1)), ((1, 1), (4,)), ((2, 2), (1, 1))])
def test_oracle_plethysm_matches_brute_reference_in_degree_8(lam, mu):
    f, g = schur(lam), schur(mu)
    assert fields(oracle_plethysm(f, g, 8)) == fields(brute_plethysm(f, g, 8))


# -- symmetric values compare on dominant monomials -------------------------


def test_degree_8_comparison_builds_no_monomials():
    f, g = schur((2,)), schur((2, 1, 1))
    before = _orbits.cache_info().currsize
    kernel, direct = expand(f.pleth(g), 8), oracle_plethysm(f, g, 8)
    assert kernel == direct
    assert _orbits.cache_info().currsize == before
    assert kernel._monomials is None and direct._monomials is None


def test_symmetric_value_equals_its_rebuilt_monomials():
    f = schur((2, 1)) + Fraction(1, 3) * schur((1, 1, 1))
    for nvars in (3, 5):
        eager = MonomialPoly(nvars, expand(f, nvars).terms)
        assert expand(f, nvars) == eager
        assert eager == expand(f, nvars)
        assert fields(expand(f, nvars)) == fields(eager)


def test_symmetric_values_differ_in_one_dominant_coefficient_or_d_or_nvars():
    f = schur((4,)) + schur((2, 2))
    base = expand(f, 4)
    # s_(1,1,1,1) is m_(1,1,1,1): one dominant coefficient moves
    one_more = expand(f + schur((1, 1, 1, 1)), 4)
    assert base._d == one_more._d and base._dom.keys() == one_more._dom.keys()
    assert sum(base._dom[gam] != one_more._dom[gam] for gam in base._dom) == 1
    # half of f has the same numerators over twice the denominator
    half = expand(f.scale(Fraction(1, 2)), 4)
    assert half._dom == base._dom and half._d == 2 * base._d
    wider = expand(f, 5)
    assert wider._dom == base._dom and wider._d == base._d
    for other in (one_more, half, wider):
        assert base != other and other != base
    assert all(v._monomials is None for v in (base, one_more, half, wider))
    assert expand(f, 4) == base


def test_symmetric_product_equals_the_full_monomial_product():
    """Two symmetric values in nvars >= deg variables multiply on dominant
    monomials; the full-monomial product of their expansions is the same."""
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
                full = _make(n, dict(x._c), x._d, x.deg) * _make(n, dict(y._c), y._d, y.deg)
                got = x * y
                # with fewer variables than the degree some partition has no
                # monomial, so the product takes the full-monomial path (a
                # zero value has degree 0)
                symmetric = n >= x.deg + y.deg
                assert (got._dom is not None and got._monomials is None) == symmetric
                if n >= deg:
                    assert got == expand(f * g, n)
                assert fields(got) == fields(full)
    x = expand(schur((1, 1)), 2)
    assert (x * x)._dom is None and (x * x).terms == {(2, 2): 1}
