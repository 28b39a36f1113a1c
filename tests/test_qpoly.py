from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from equichar.qpoly import ExactDivisionError, QPoly, parse_rat, rat_str


def qpolys(max_degree=6, max_coeff=9):
    coeff = st.fractions(
        min_value=-max_coeff, max_value=max_coeff, max_denominator=4
    )
    return st.dictionaries(
        st.integers(min_value=0, max_value=max_degree), coeff, max_size=5
    ).map(QPoly)


def test_construction_and_coeffs():
    p = QPoly({2: 3, 0: 1})
    assert p.coeff(2) == 3
    assert p.coeff(1) == 0
    assert p.degree == 2
    assert QPoly(0).is_zero()
    assert QPoly().degree == -1


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        QPoly({-1: 1})


def test_q_and_geometric():
    assert QPoly.q() == QPoly({1: 1})
    assert QPoly.q(3, 2) == QPoly({3: 2})
    assert QPoly.geometric(4) == QPoly({0: 1, 1: 1, 2: 1, 3: 1})
    assert QPoly.geometric(0).is_zero()


def test_arithmetic():
    p = QPoly({1: 1, 0: 1})
    assert p + p == 2 * p
    assert p - p == QPoly()
    assert p * p == QPoly({2: 1, 1: 2, 0: 1})
    assert 1 + QPoly.q() == p
    assert p * 0 == QPoly()


@given(qpolys(), qpolys(), qpolys())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert a + QPoly() == a
    assert a * QPoly(1) == a


def test_stretch():
    p = QPoly({2: 1, 1: 3})
    assert p.stretch(3) == QPoly({6: 1, 3: 3})
    assert p.stretch(1) == p


def test_reflect_palindrome():
    p = QPoly({0: 1, 1: 2, 2: 1})
    assert p.reflect(2) == p
    assert QPoly({0: 1, 1: 2}).reflect(2) == QPoly({2: 1, 1: 2})
    with pytest.raises(ValueError):
        QPoly({3: 1}).reflect(2)


def test_divexact():
    divisor = QPoly({3: 1, 1: -1})
    quotient = QPoly({2: 5, 1: 1, 0: 2})
    assert (quotient * divisor).divexact(divisor) == quotient
    with pytest.raises(ExactDivisionError):
        QPoly({1: 1, 0: 1}).divexact(divisor)
    with pytest.raises(ZeroDivisionError):
        QPoly(1).divexact(QPoly())


@given(qpolys(), qpolys())
def test_divexact_roundtrip(a, b):
    if b.is_zero():
        return
    assert (a * b).divexact(b) == a


@given(qpolys(), qpolys(), st.integers(min_value=-50, max_value=50))
def test_unpack_inverts_integer_combinations_of_packed_values(a, b, m):
    # 12 clears the denominators up to 4; |coefficients| stay below 2^15
    x = m * a.pack(12, 16) + b.pack(12, 16)
    assert QPoly.unpack(x, 16, 12) == m * a + b


def test_evaluate():
    p = QPoly({3: 1, 2: 16, 1: 16, 0: 1})
    assert p.evaluate(1) == 34
    assert p.evaluate(0) == 1
    assert p.evaluate(Fraction(1, 2)) == Fraction(1 + 16 * 2 + 16 * 4 + 8, 8)


def test_effectivity():
    assert QPoly({2: 3, 0: 1}).is_effective()
    assert not QPoly({1: -1}).is_effective()
    assert not QPoly({1: Fraction(1, 2)}).is_effective()


def test_rat_round_trip():
    for f in (Fraction(3), Fraction(-5, 7), Fraction(0)):
        assert parse_rat(rat_str(f)) == f
    assert rat_str(Fraction(3)) == "3"
    assert rat_str(Fraction(1, 2)) == "1/2"


@given(qpolys())
def test_json_round_trip(p):
    assert QPoly.from_json_dict(p.to_json_dict()) == p


def test_str():
    assert str(QPoly()) == "0"
    assert str(QPoly({3: 1, 1: -2, 0: 1})) == "q^3-2q+1"
    assert str(QPoly({1: Fraction(1, 2)})) == "(1/2)q"
    assert str(QPoly({0: 7})) == "7"


@given(qpolys(), qpolys())
def test_reflect_twice(a, b):
    p = a * a + QPoly(1)  # nonzero with known degree
    top = p.degree + 2
    assert p.reflect(top).reflect(top) == p
