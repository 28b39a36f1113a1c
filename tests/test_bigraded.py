"""Two-leg symmetric functions: tensor construction, restriction, induction,
leg derivatives, and serialization."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st
from test_partitions import split_factor

from equichar.bigraded import BiSymFunc, restrict_full
from equichar.moduli import CharacterCalculator
from equichar.partitions import irrep_dimension, partitions_of, sort_key, union
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


def embed_y(f):
    """The reference embedding of f on the y-leg, with an empty x-leg: 1 (x) f."""
    return BiSymFunc.tensor(powersum(()), f)


def test_embed_x_embed_y():
    g = schur((2, 1))
    assert embed_y(g).bidegree == (0, 3)
    assert embed_y(g).y_symfunc() == g


def swap_legs(f):
    """The reference leg swap: every key (lx, ly) becomes (ly, lx)."""
    return BiSymFunc(f.basis, f.ydeg, f.xdeg, {(ly, lx): c for (lx, ly), c in f.terms.items()})


def induce(f):
    """The reference induction product of the two legs: characters multiply
    in Lambda, so on power sums each key (lx, ly) becomes p_(lx union ly)."""
    fp = f.to_powersum()
    return SymFunc(POWERSUM, fp.xdeg + fp.ydeg, [(union(lx, ly), c) for (lx, ly), c in fp.terms.items()])


def test_swap_legs():
    f = BiSymFunc.tensor(schur((1,)), schur((2,)))
    assert swap_legs(f) == BiSymFunc.tensor(schur((2,)), schur((1,)))


def test_product_works_legwise():
    f = BiSymFunc.tensor(powersum((1,)), powersum((2,)))
    g = BiSymFunc.tensor(powersum((1,)), powersum((1,)))
    h = f * g
    assert h.to_powersum().coeff((1, 1), (2, 1)) == QPoly(1)


def test_induce_merges_legs():
    f = BiSymFunc.tensor(powersum((2,)), powersum((3, 1)))
    assert induce(f) == powersum((3, 2, 1))


def test_induce_on_schur_tensor():
    # s_(1) x s_(1) induces to the degree-2 regular character h_1 h_1
    f = BiSymFunc.tensor(schur((1,)), schur((1,)))
    assert induce(f) == schur((2,)) + schur((1, 1))


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
        total += irrep_dimension(lx) * irrep_dimension(ly) * sum(v for _, v in c.items())
    assert total == irrep_dimension((4, 1))
    assert f.bidegree == (k, n - k)


def test_deriv_x():
    f = BiSymFunc.tensor(powersum((2, 2)), powersum((1,)))
    g = f.deriv_x((2,))
    assert g.coeff((2,), (1,)) == QPoly(2)


def test_y_symfunc_requires_empty_x():
    f = BiSymFunc.tensor(schur((1,)), schur((2,)))
    with pytest.raises(ValueError):
        f.y_symfunc()


def test_dimension_poly():
    f = QPoly.q() * BiSymFunc.tensor(schur((2, 1)), schur((2, 1)))
    assert f.dimension_poly() == QPoly({1: 4})


def test_shared_linear_structure():
    """SymFunc and BiSymFunc share sum, negation, scaling, equality, hash,
    q-coefficients, product, `coeff`, `dimension_poly` and the basis
    changes, and never mix with each other."""
    f = (QPoly({2: 1, 0: 3}) * schur((2, 1)) + QPoly.q() * schur((3,))).to_powersum()
    y = embed_y(f)
    assert f != y and y != f
    with pytest.raises(TypeError):
        f + y
    with pytest.raises(TypeError):
        y + f
    b = QPoly({1: 2}) * BiSymFunc.tensor(schur((2,)), schur((1, 1)))
    b = b + BiSymFunc.tensor(schur((1, 1)), schur((2,)))
    for g, shape, value in ((f, "degree", 3), (b, "bidegree", (2, 2))):
        derived = [-g, g.scale(Fraction(-2, 3)), g.scale(QPoly.q()), g.scale(0)]
        for h in derived + [g.q_coefficient(1), g.q_coefficient(7)]:
            assert type(h) is type(g)
            assert getattr(h, shape) == value
        assert (g + -g).is_zero() and g.q_coefficient(7).is_zero()
        assert g.to_schur() == g and hash(g) == hash(g.to_schur())
    assert f.q_coefficient(2) == schur((2, 1))
    assert b.q_coefficient(0) == BiSymFunc.tensor(schur((1, 1)), schur((2,)))
    with pytest.raises(TypeError):
        f * y
    with pytest.raises(TypeError):
        y * f
    # the induction product: dimensions multiply times C(6, 3), or C(4, 2)^2 legwise
    cases = ((f, "degree", 3, 6, 20, [(2, 1)]), (b, "bidegree", (2, 2), (4, 4), 36, [(2,), (1, 1)]))
    for g, shape, value, doubled, factor, legs in cases:
        for h in (g.to_schur(), g.to_powersum(), g.to_schur().to_powersum()):
            assert type(h) is type(g) and getattr(h, shape) == value and h == g
        square = g * g
        assert type(square) is type(g) and getattr(square, shape) == doubled
        assert square == g.to_schur() * g and 2 * g == g * 2 == g + g
        dim = g.dimension_poly()
        assert square.dimension_poly() == dim * dim * factor
        assert g.to_schur().coeff(*legs) == g.to_schur().coeff(*map(list, legs)) != 0
    assert f.to_schur().coeff((2, 1)) == QPoly({2: 1, 0: 3}) and f.to_schur().coeff((1, 1, 1)) == 0
    assert b.to_schur().coeff((2,), (1, 1)) == QPoly({1: 2})
    assert SymFunc(SCHUR, 0, {(): 5}).dimension_poly() == 5
    assert BiSymFunc(POWERSUM, 0, 0, {((), ()): 5}).dimension_poly() == 5


def test_constructor_rejects_non_partitions():
    """Each leg of a key must be a partition of its degree (a part 1.0 reads
    as 1), and the degrees must be ints."""
    for key in (((1,), (1, 1, 0)), ((1,), (1, 2)), ((1,), (2,), ()), ((1,),), (1, 2), None):
        with pytest.raises(ValueError):
            BiSymFunc(SCHUR, 1, 2, {key: 1})
    for degrees in ((1.9, 2), (1, 2.0)):
        with pytest.raises(TypeError):
            BiSymFunc(SCHUR, *degrees, {((1,), (2,)): 1})
    f = BiSymFunc(SCHUR, 1, 2, [(((1.0,), [2]), 1), (((1,), (2,)), 1), (((1,), (1, 1)), 0)])
    assert f.terms == {((1,), (2,)): QPoly(2)} and type(next(iter(f.terms))[0][0]) is int


@given(partitions(max_size=4, min_size=1), partitions(max_size=4, min_size=1))
def test_json_round_trip(lx, ly):
    f = QPoly({1: 2, 0: 1}) * BiSymFunc.tensor(schur(lx), schur(ly))
    assert BiSymFunc.from_json_dict(f.to_json_dict()) == f


@st.composite
def schur_bisymfuncs(draw, max_size=5):
    xdeg = draw(st.integers(0, max_size))
    ydeg = draw(st.integers(0, max_size))
    keys = [(lx, ly) for lx in partitions_of(xdeg) for ly in partitions_of(ydeg)]
    chosen = draw(st.lists(st.sampled_from(keys), unique=True))
    coeffs = st.dictionaries(st.integers(0, 4), st.integers(1, 9), min_size=1, max_size=3)
    return BiSymFunc(SCHUR, xdeg, ydeg, {key: QPoly(draw(coeffs)) for key in chosen})


@given(schur_bisymfuncs())
def test_json_term_order(f):
    """Terms are written largest first in the column order, x-leg before y-leg."""
    written = [(tuple(t["x"]), tuple(t["y"])) for t in f.to_json_dict()["terms"]]
    assert written == sorted(
        f.terms, key=lambda k: (sort_key(k[0]), sort_key(k[1])), reverse=True
    )
    assert BiSymFunc.from_json_dict(f.to_json_dict()) == f


def test_from_json_drops_zero_terms():
    terms = [{"x": [1], "y": [2], "coeff": {"0": "0"}}, {"x": [1], "y": [1, 1], "coeff": {}}]
    data = {"basis": SCHUR, "bidegree": [1, 2], "terms": terms}
    assert BiSymFunc.from_json_dict(data) == BiSymFunc(SCHUR, 1, 2)


def test_from_json_reads_only_schur_documents():
    """`to_json_dict` writes Schur form alone, so a power-sum document, or
    one naming any other basis, is refused before its terms are read."""
    f = QPoly.q() * BiSymFunc.tensor(schur((2,)), schur((1,)))
    for basis in (POWERSUM, "monomial", None):
        data = dict(f.to_json_dict(), basis=basis)
        with pytest.raises(ValueError, match="want 'schur'"):
            BiSymFunc.from_json_dict(data)


def test_addition_needs_matching_bidegree():
    f = BiSymFunc.tensor(schur((1,)), schur((2,)))
    g = BiSymFunc.tensor(schur((2,)), schur((1,)))
    with pytest.raises(ValueError):
        f + g


def _pderiv(f, lam):
    """The reference normalized derivative d/dp_lam: `split_factor` on each
    term, where `SymFunc.pderiv` keeps one entry of the walk."""
    out = {}
    for mu, c in f.to_powersum().terms.items():
        hit = split_factor(mu, lam)
        if hit is not None:
            rest, count = hit
            out[rest] = c * count
    return SymFunc(POWERSUM, f.degree - sum(lam), out)


def _restrict_by_derivatives(f, k):
    """sum over lam of n-k of d/dp_lam f (x) p_lam: one derivative per lam."""
    n = f.degree
    total = BiSymFunc(POWERSUM, k, n - k)
    for lam in partitions_of(n - k):
        total = total + BiSymFunc.tensor(_pderiv(f, lam), powersum(lam))
    return total


@pytest.mark.parametrize("n", range(1, 9))
def test_restrict_full_matches_derivatives(n):
    for lam in partitions_of(n):
        f = schur(lam).to_powersum()
        for k in range(n + 1):
            assert restrict_full(f, k) == _restrict_by_derivatives(f, k), (lam, k)


def test_restrict_full_of_full_character():
    f = CharacterCalculator().character(10).to_powersum().y_symfunc()
    for k in range(11):
        assert restrict_full(f, k) == _restrict_by_derivatives(f, k), k


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
    back = induce(f)
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
    expected = BiSymFunc(target, f.xdeg, f.ydeg)
    for (lx, ly), c in f.terms.items():
        fx = _to(SymFunc(f.basis, f.xdeg, {lx: 1}), target)
        fy = _to(SymFunc(f.basis, f.ydeg, {ly: 1}), target)
        legwise = {(ax, ay): c * cx * cy for ax, cx in fx.terms.items() for ay, cy in fy.terms.items()}
        expected = expected + BiSymFunc(target, f.xdeg, f.ydeg, legwise)
    converted = _to(f, target)
    assert converted.basis == target
    assert converted.terms == expected.terms
    assert _to(converted, f.basis).terms == f.terms
