import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from equichar.qpoly import ExactDivisionError, QPoly, rat_str


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


def test_from_numerators_is_reduced():
    p = QPoly.from_numerators({3: 4, 1: 0, 0: -6}, 8)
    assert p == QPoly({3: Fraction(1, 2), 0: Fraction(-3, 4)})
    assert QPoly.from_numerators({0: 0, 2: 0}, 5) == QPoly(0)
    assert QPoly.from_numerators({1: 7}) == QPoly.q(1, 7)
    for bad in (0, -2):
        with pytest.raises(ValueError):
            QPoly.from_numerators({0: 1}, bad)


@given(
    st.dictionaries(
        st.integers(min_value=0, max_value=40), st.integers(-(10**30), 10**30), max_size=8
    )
)
def test_integer_coefficients_build_the_numerators(coeffs):
    """Int coefficients skip `Fraction`: the stored fields equal those of
    `from_numerators` and of the `Fraction` build, with int numerators."""
    for p, want in (
        (QPoly(coeffs), QPoly.from_numerators(coeffs)),
        (QPoly(coeffs.get(0, 0)), QPoly.from_numerators({0: coeffs.get(0, 0)})),
    ):
        assert (p._c, p._d) == (want._c, want._d)
        assert all(type(v) is int for v in p._c.values())
    fractional = QPoly({k: Fraction(v) for k, v in coeffs.items()})
    assert (QPoly(coeffs)._c, QPoly(coeffs)._d) == (fractional._c, fractional._d)


def test_mixed_and_boolean_coefficients_keep_int_numerators():
    p = QPoly({0: 3, 2: Fraction(1, 2), 4: True})
    assert (p._c, p._d) == ({0: 6, 2: 1, 4: 2}, 2)
    assert all(type(v) is int for v in QPoly({1: True, 2: Fraction(4, 2)})._c.values())


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        QPoly({-1: 1})


def test_exponent_must_be_an_int():
    """An exponent such as 1.5 raises instead of truncating to q; exponents
    read from JSON strings still load, fractional coefficients included."""
    for bad in (1.5, 2.0, "1"):
        with pytest.raises(TypeError):
            QPoly({bad: 1})
    assert QPoly.from_json_dict({"1": "1/2", "3": "-2"}) == QPoly({1: Fraction(1, 2), 3: -2})


def _outcome(build):
    """What build() gives: its value, or the type of the exception it raises."""
    try:
        return build()
    except Exception as exc:
        return type(exc)


@pytest.mark.parametrize(
    "scalar", [2.5, Fraction(-1, 3), 7, True, "3/4", "a", None, [1], float("nan"), float("inf")]
)
def test_scalar_builds_its_constant_term(scalar):
    """QPoly(c) is QPoly({0: c}) for any scalar c: the same value, or the
    same error, and never an AttributeError."""
    built = _outcome(lambda: QPoly(scalar))
    assert built == _outcome(lambda: QPoly({0: scalar}))
    assert built is not AttributeError


@pytest.mark.parametrize("other", ["a", 1.5, None, [1]])
def test_arithmetic_with_other_types_raises_type_error(other):
    """A sum, difference or product with a value that is no int, Fraction
    or QPoly raises TypeError, on either side."""
    p = QPoly({0: 1, 1: 2})
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError):
            op(p, other)
        with pytest.raises(TypeError):
            op(other, p)


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


def test_divexact_non_monic_and_rational_divisors():
    # non-monic integer divisor -2q^2 + 3: the quotient has halves and thirds
    divisor = QPoly({2: -2, 0: 3})
    for quotient in (QPoly({3: Fraction(1, 2), 1: -7, 0: Fraction(2, 3)}), QPoly({2: 5, 0: -1})):
        assert (quotient * divisor).divexact(divisor) == quotient
    # q^3 = (-2q^2 + 3)(-q/2) + (3/2)q leaves a remainder over the rationals
    with pytest.raises(ExactDivisionError):
        QPoly({3: 1}).divexact(divisor)
    # rational divisor (3/4)q - 1/6, and a rational constant
    divisor = QPoly({1: Fraction(3, 4), 0: Fraction(-1, 6)})
    quotient = QPoly({2: 4, 0: -5})
    assert (quotient * divisor).divexact(divisor) == quotient
    assert quotient.divexact(Fraction(-2, 3)) == QPoly({2: -6, 0: Fraction(15, 2)})
    with pytest.raises(ExactDivisionError):
        QPoly({2: 1, 0: 1}).divexact(divisor)


@given(qpolys(), qpolys(), qpolys())
def test_form_is_canonical(a, b, c):
    p = a * b + c
    rebuilt = QPoly(dict(p.items()))
    assert p == rebuilt
    assert hash(p) == hash(rebuilt)


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


@pytest.mark.parametrize("x", [1, 5, -1, -6])
def test_unpack_rejects_fewer_than_two_bits_for_a_nonzero_value(x):
    for bits in (0, 1):
        with pytest.raises(ValueError):
            QPoly.unpack(x, bits, 1)
        assert QPoly.unpack(0, bits, 1) == 0


def test_effectivity():
    assert QPoly({2: 3, 0: 1}).is_effective()
    assert not QPoly({1: -1}).is_effective()
    assert not QPoly({1: Fraction(1, 2)}).is_effective()
    # two half-integer polynomials whose sum is integral
    half = QPoly({0: Fraction(1, 2), 2: Fraction(3, 2)}) + QPoly({0: Fraction(1, 2), 2: Fraction(1, 2)})
    assert half.is_effective()
    assert half == QPoly({0: 1, 2: 2})


def test_rat_round_trip():
    for f in (Fraction(3), Fraction(-5, 7), Fraction(0)):
        assert Fraction(rat_str(f)) == f
    assert rat_str(Fraction(3)) == "3"
    assert rat_str(Fraction(1, 2)) == "1/2"


@given(qpolys())
def test_json_round_trip(p):
    assert QPoly.from_json_dict(p.to_json_dict()) == p


integer_strings = st.integers(-(10**30), 10**30).map(str) | st.from_regex(
    r"-?0*[0-9]{1,3}", fullmatch=True
)
rational_strings = st.builds(
    "{}/{}".format, st.integers(-99, 99), st.integers(1, 99)
) | st.fractions(max_denominator=50).map(str)


@settings(deadline=None)
@given(
    st.dictionaries(
        st.integers(0, 12).map(str), integer_strings | rational_strings, max_size=6
    )
)
def test_integer_parse_matches_fraction_parse(data):
    """The `int` path of `from_json_dict` reads what the `Fraction` path reads."""
    expected = QPoly({int(k): Fraction(v) for k, v in data.items()})
    assert QPoly.from_json_dict(data) == expected


@pytest.mark.parametrize(
    "value", ["+5", " 5", "5_0", "\u0665", "\u00b2", "5.0", "1e3", "--5", "-", "", "-0", "007"]
)
def test_integer_test_matches_fraction_parse_on_edge_strings(value):
    """A value outside `-?[0-9]+` that `int` might still read goes the
    `Fraction` way: both paths give the same polynomial or both raise."""
    data = {"0": "1", "2": value}
    try:
        expected = QPoly({0: 1, 2: Fraction(value)})
    except ValueError:
        with pytest.raises(ValueError):
            QPoly.from_json_dict(data)
    else:
        assert QPoly.from_json_dict(data) == expected


def test_json_rejects_negative_exponents():
    for value in ("2", "1/2"):
        with pytest.raises(ValueError):
            QPoly.from_json_dict({"0": "1", "-1": value})


@pytest.mark.parametrize("key", ["01", "1_0", " 1", "1 ", "+2", "\u0661", "\u00b2", "00", ""])
def test_json_reads_only_canonical_exponents(key):
    """An exponent key is read only as `to_json_dict` writes it: ASCII
    digits, no sign, no leading zero.  `int` would read "01" as q^1 next to
    a key "1", "1_0" as q^10, and " 1", "+2" and non-ASCII digits as well."""
    for value in ("2", "1/2"):
        with pytest.raises(ValueError, match="q-exponent"):
            QPoly.from_json_dict({"1": "1", key: value})
    assert QPoly.from_json_dict({"0": "1", "10": "2"}) == QPoly({0: 1, 10: 2})


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
