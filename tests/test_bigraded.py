"""Two-leg symmetric functions: tensor construction, restriction, induction,
leg plethysm, and serialization."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from equichar.bigraded import BiSymFunc, restrict_full
from equichar.partitions import irrep_dimension, partitions_of
from equichar.qpoly import QPoly
from equichar.symfunc import POWERSUM, SCHUR, SymFunc, powersum, schur


def partitions(max_size=5, min_size=0):
    return st.integers(min_value=min_size, max_value=max_size).flatmap(
        lambda n: st.sampled_from(partitions_of(n))
    )


def test_tensor_and_legs():
    f = BiSymFunc.tensor(schur((2,)), schur((3,)))
    assert f.bidegree == (2, 3)
    assert f.to_schur().coeff((2,), (3,)) == QPoly(1)


def test_embed_x_embed_y():
    g = schur((2, 1))
    assert BiSymFunc.embed_y(g).bidegree == (0, 3)
    assert BiSymFunc.embed_x(g).bidegree == (3, 0)
    assert BiSymFunc.embed_y(g).y_symfunc() == g


def test_swap_legs():
    f = BiSymFunc.tensor(schur((1,)), schur((2,)))
    assert f.swap_legs() == BiSymFunc.tensor(schur((2,)), schur((1,)))


def test_product_works_legwise():
    f = BiSymFunc.tensor(powersum((1,)), powersum((2,)))
    g = BiSymFunc.tensor(powersum((1,)), powersum((1,)))
    h = f * g
    assert h.to_powersum().coeff((1, 1), (2, 1)) == QPoly(1)


def test_induce_merges_legs():
    f = BiSymFunc.tensor(powersum((2,)), powersum((3, 1)))
    assert f.induce() == powersum((3, 2, 1))


def test_induce_on_schur_tensor():
    # s_(1) x s_(1) induces to the degree-2 regular character h_1 h_1
    f = BiSymFunc.tensor(schur((1,)), schur((1,)))
    assert f.induce() == schur((2,)) + schur((1, 1))


def test_restrict_full_branching():
    # the trivial character of S_3 restricts to the trivial character of
    # S_1 x S_2: heavy leg x of degree 1, light leg y of degree 2
    f = restrict_full(schur((3,)).to_powersum(), 1)
    assert f.bidegree == (1, 2)
    assert f == BiSymFunc.tensor(schur((1,)), schur((2,)))


def test_restrict_full_standard():
    # branching of the standard representation (2,1) of S_3 to S_2:
    # s_(2) + s_(1,1) each once, seen on the y leg with x = p_(1)
    f = restrict_full(schur((2, 1)).to_powersum(), 1).to_schur()
    assert f.coeff((1,), (2,)) == QPoly(1)
    assert f.coeff((1,), (1, 1)) == QPoly(1)


def test_restrict_full_preserves_dimension():
    # restriction to a Young subgroup keeps the total dimension
    n, k = 5, 2
    f = restrict_full(schur((4, 1)).to_powersum(), k).to_schur()
    total = 0
    for (lx, ly), c in f.terms.items():
        total += irrep_dimension(lx) * irrep_dimension(ly) * c.evaluate(1)
    assert total == irrep_dimension((4, 1))
    assert f.bidegree == (k, n - k)


def test_deriv_x():
    f = BiSymFunc.tensor(powersum((2, 2)), powersum((1,)))
    g = f.deriv_x((2,))
    assert g.coeff((2,), (1,)) == QPoly(2)


def test_pleth_y_stretches_y_leg_only():
    f = BiSymFunc.tensor(powersum((1,)), powersum((2,)))
    g = f.pleth_y(powersum((3,)))
    assert g.coeff((1,), (6,)) == QPoly(1)


def test_y_symfunc_requires_empty_x():
    f = BiSymFunc.tensor(schur((1,)), schur((2,)))
    with pytest.raises(ValueError):
        f.y_symfunc()


def test_dimension_poly():
    f = QPoly.q() * BiSymFunc.tensor(schur((2, 1)), schur((2, 1)))
    assert f.dimension_poly() == QPoly({1: 4})


@given(partitions(max_size=4, min_size=1), partitions(max_size=4, min_size=1))
def test_json_round_trip(lx, ly):
    f = QPoly({1: 2, 0: 1}) * BiSymFunc.tensor(schur(lx), schur(ly))
    assert BiSymFunc.from_json_dict(f.to_json_dict()) == f


def test_addition_needs_matching_bidegree():
    f = BiSymFunc.tensor(schur((1,)), schur((2,)))
    g = BiSymFunc.tensor(schur((2,)), schur((1,)))
    with pytest.raises(ValueError):
        f + g


@given(partitions(max_size=5, min_size=1), st.integers(min_value=0, max_value=4))
def test_restrict_then_induce_multiplicity(lam, k):
    """Frobenius reciprocity bookkeeping: inducing back after restricting
    multiplies total dimension by the binomial factor already accounted in
    the derivative normalization, so degrees stay consistent."""
    n = sum(lam)
    if k > n:
        return
    f = restrict_full(schur(lam).to_powersum(), k)
    assert f.bidegree == (k, n - k)
    back = f.induce()
    assert back.degree == n


def _q_coeffs():
    fractions = st.builds(
        Fraction, st.integers(min_value=-60, max_value=60), st.integers(min_value=1, max_value=12)
    )
    return st.dictionaries(st.integers(min_value=0, max_value=4), fractions, max_size=4).map(QPoly)


@st.composite
def _bisymfuncs(draw):
    """Random two-leg functions that are not characters: rational and
    negative q-coefficients, legs of degree 0 to 5, either basis."""
    xdeg = draw(st.integers(min_value=0, max_value=5))
    ydeg = draw(st.integers(min_value=0, max_value=5))
    keys = st.tuples(st.sampled_from(partitions_of(xdeg)), st.sampled_from(partitions_of(ydeg)))
    terms = draw(st.dictionaries(keys, _q_coeffs(), min_size=1, max_size=6))
    return BiSymFunc(draw(st.sampled_from((POWERSUM, SCHUR))), xdeg, ydeg, terms)


def _to(f, basis):
    return f.to_schur() if basis == SCHUR else f.to_powersum()


@given(_bisymfuncs())
def test_conversion_is_the_legwise_tensor_of_one_leg_conversions(f):
    target = SCHUR if f.basis == POWERSUM else POWERSUM
    expected = BiSymFunc.zero(f.xdeg, f.ydeg, target)
    for (lx, ly), c in f.terms.items():
        fx = _to(SymFunc(f.basis, f.xdeg, {lx: 1}), target)
        fy = _to(SymFunc(f.basis, f.ydeg, {ly: 1}), target)
        legwise = {(ax, ay): c * cx * cy for ax, cx in fx.terms.items() for ay, cy in fy.terms.items()}
        expected = expected + BiSymFunc(target, f.xdeg, f.ydeg, legwise)
    converted = _to(f, target)
    assert converted.basis == target
    assert converted.terms == expected.terms
    assert _to(converted, f.basis).terms == f.terms
