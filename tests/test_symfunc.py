"""Symmetric function kernel tests: basis conversion, products, Kronecker,
plethysm, and the derivative used by restriction."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, strategies as st

from equichar.bigraded import BiSymFunc
from equichar.moduli import CharacterCalculator, blowup_fiber_character
from equichar.oracles import jacobi_trudi_to_powersum
from equichar.partitions import (
    centralizer_order,
    conjugate,
    irrep_dimension,
    partitions_of,
    union,
)
from equichar.qpoly import QPoly
from equichar.symfunc import (
    POWERSUM,
    SCHUR,
    SymFunc,
    _largest_entry,
    _table,
    change_basis,
    character_value,
    complete,
    pack_terms,
    powersum,
    schur,
)


def partitions(max_size=6, min_size=0):
    return st.integers(min_value=min_size, max_value=max_size).flatmap(
        lambda n: st.sampled_from(partitions_of(n))
    )


# --- character values (Murnaghan-Nakayama) ---------------------------------


def character_table(n):
    parts = partitions_of(n)
    return [[character_value(lam, mu) for mu in parts] for lam in parts]


def test_character_table_s3():
    # rows: (3), (2,1), (1,1,1); columns: classes (1,1,1), (2,1), (3)
    table = {
        (3,): {(1, 1, 1): 1, (2, 1): 1, (3,): 1},
        (2, 1): {(1, 1, 1): 2, (2, 1): 0, (3,): -1},
        (1, 1, 1): {(1, 1, 1): 1, (2, 1): -1, (3,): 1},
    }
    for lam, row in table.items():
        for mu, value in row.items():
            assert character_value(lam, mu) == value


def test_character_table_s4_sign_and_standard():
    assert character_value((1, 1, 1, 1), (4,)) == -1
    assert character_value((2, 1, 1), (2, 1, 1)) == -1
    assert character_value((2, 2), (2, 2)) == 2
    assert character_value((3, 1), (4,)) == -1


def _dimensions_by_branching(n_max):
    """f^lam for every partition of size <= n_max by the branching rule:
    f^() = 1, and f^lam is the sum of f^(lam - corner) over the corners of
    lam, the last cell of each row longer than the row below it."""
    dims = {(): 1}
    for n in range(1, n_max + 1):
        for lam in partitions_of(n):
            total = 0
            for i, a in enumerate(lam):
                if i + 1 == len(lam) or lam[i + 1] < a:
                    smaller = lam[:i] + (a - 1,) + lam[i + 1 :]
                    total += dims[smaller if a > 1 else smaller[:-1]]
            dims[lam] = total
    return dims


def test_character_at_identity_is_dimension():
    """The hook-length dimensions up to n = 24, and column (1^n) of the
    character tables up to n = 16, against the branching rule."""
    for lam, f in _dimensions_by_branching(24).items():
        if lam:
            assert irrep_dimension(lam) == f, lam
            if sum(lam) <= 16:
                assert character_value(lam, (1,) * sum(lam)) == f, lam


@pytest.mark.parametrize("n", range(11, 17))
def test_character_table_column_norms(n):
    """Column orthogonality on the diagonal, past the degrees the full
    orthogonality test reaches: sum over lam of chi^lam(mu)^2 = z_mu."""
    table = character_table(n)
    for j, mu in enumerate(partitions_of(n)):
        assert sum(row[j] ** 2 for row in table) == centralizer_order(mu)


@pytest.mark.parametrize("n", range(11))
def test_conjugate_character_is_signed(n):
    """chi^lam'(mu) = sign(mu) chi^lam(mu), sign(mu) = (-1)^(n - len mu):
    the rows the half table does not store are read this way."""
    for lam in partitions_of(n):
        for mu in partitions_of(n):
            sign = (-1) ** (n - len(mu))
            assert character_value(conjugate(lam), mu) == sign * character_value(lam, mu)


@pytest.mark.parametrize("n", range(17))
def test_table_keeps_the_rows_up_to_their_conjugate(n):
    """p(n) columns of the rows lam <= lam': the self-conjugate partitions
    and one of each conjugate pair."""
    parts = partitions_of(n)
    self_conjugate = sum(lam == conjugate(lam) for lam in parts)
    assert len(_table(n)) == len(parts) * (len(parts) + self_conjugate) // 2


@pytest.mark.parametrize("n", range(2, 17))
def test_table_builds_no_table_one_degree_below(n):
    """Column (1^n) comes from hook lengths and every other column from
    S_(n-a) with a >= 2, so S_n builds S_0 .. S_(n-2) and not S_(n-1)."""
    _table.cache_clear()
    _table(n)
    assert _table.cache_info().currsize == n
    _table(n - 1)
    assert _table.cache_info().currsize == n + 1


def test_cold_full_space_builds_no_table_one_degree_below():
    """A cold E(14, 0, 1) converts no leg of degree 13, so it builds no S_13."""
    _table.cache_clear()
    CharacterCalculator().character(14, 0, 1)
    built = _table.cache_info().currsize
    _table(13)
    assert _table.cache_info().currsize == built + 1


@given(partitions(max_size=6, min_size=1), partitions(max_size=6, min_size=1))
def test_character_size_mismatch(lam, mu):
    if sum(lam) != sum(mu):
        with pytest.raises(ValueError):
            character_value(lam, mu)


def test_character_table_matches_jacobi_trudi():
    """chi^lam(mu) is z_mu times the p_mu coefficient of s_lam; the Jacobi-Trudi
    oracle expands s_lam without the abacus or any character value."""
    for n in range(10):
        parts = partitions_of(n)
        table = character_table(n)
        for i, lam in enumerate(parts):
            s_lam = jacobi_trudi_to_powersum(lam)
            for j, mu in enumerate(parts):
                c = s_lam.coeff(mu)
                assert c.degree <= 0
                assert table[i][j] == c.coeff(0) * centralizer_order(mu)


@pytest.mark.parametrize("n", range(11))
def test_character_table_orthogonality(n):
    parts = partitions_of(n)
    table = character_table(n)
    classes = [factorial(n) // centralizer_order(mu) for mu in parts]
    for a, row_a in enumerate(table):
        for b, row_b in enumerate(table):
            # rows: sum over classes of |class| chi^a chi^b = n! [a == b]
            rows = sum(c * x * y for c, x, y in zip(classes, row_a, row_b))
            assert rows == (factorial(n) if a == b else 0)
            # columns: sum over irreducibles of chi(mu_a) chi(mu_b) = z_mu [a == b]
            columns = sum(row[a] * row[b] for row in table)
            assert columns == (centralizer_order(parts[a]) if a == b else 0)


# --- basis conversion --------------------------------------------------------


def test_constructors_reject_non_integer_parts():
    for make in (schur, powersum):
        with pytest.raises(TypeError):
            make([2.5])


def test_single_term_constructors_match_the_checked_constructor():
    for make, basis in ((schur, SCHUR), (powersum, POWERSUM)):
        for lam, c in (((2, 1), 3), ([3, 1], Fraction(-1, 2)), ((), QPoly.q()), ((2,), 0)):
            f = make(lam, c)
            assert f == SymFunc(basis, sum(lam), {tuple(lam): c})
            assert f.terms == SymFunc(basis, sum(lam), {tuple(lam): c}).terms
        assert make((4, 2), 0).is_zero() and make((4, 2), 0).degree == 6


def test_schur_to_powersum_small():
    assert schur((2,)).to_powersum().terms == {
        (2,): Fraction(1, 2),
        (1, 1): Fraction(1, 2),
    }
    assert schur((1, 1)).to_powersum().terms == {
        (2,): Fraction(-1, 2),
        (1, 1): Fraction(1, 2),
    }


@given(partitions(max_size=7))
def test_basis_round_trip(lam):
    f = schur(lam)
    assert f.to_powersum().to_schur() == f
    g = powersum(lam)
    assert g.to_schur().to_powersum() == g


@pytest.mark.parametrize("n", [12, 14])
def test_basis_round_trip_large_degree(n):
    parts = partitions_of(n)
    f = SymFunc(SCHUR, n, {lam: QPoly({i % 3: i + 1, 4: -1}) for i, lam in enumerate(parts[::7])})
    assert f.to_powersum().to_schur().terms == f.terms
    g = SymFunc(POWERSUM, n, {mu: QPoly({0: Fraction(1, i + 2)}) for i, mu in enumerate(parts[3::11])})
    assert g.to_schur().to_powersum().terms == g.terms


# --- the carry bound of change_basis, at its edge ---------------------------
#
# A single input term with one power of q, placed where the matrix of the
# conversion has its largest entry (chi^lam(mu) to Schur functions,
# (n!/z_mu) chi^lam(mu) to power sums) and signed so that the output digit
# there is positive, makes that digit exactly the bound the packing is sized
# for.  With one bit fewer per digit it would carry into the next one.


def _largest_entry_position(n, to_schur):
    """(lam, mu, entry) at the largest absolute entry of the matrix."""
    table, parts = character_table(n), partitions_of(n)
    best = ((), (), 0)
    for i, lam in enumerate(parts):
        for j, mu in enumerate(parts):
            w = table[i][j] * (1 if to_schur else factorial(n) // centralizer_order(mu))
            if abs(w) > abs(best[2]):
                best = (lam, mu, w)
    return best


def _reference_change_basis(terms, target, degrees):
    """The conversion in Fractions, straight from the character values."""
    out = {}
    for key, c in terms.items():
        images = [((), Fraction(1))]
        for part, d in zip(key, degrees):
            step = []
            for other in partitions_of(d):
                if target == SCHUR:
                    w = Fraction(character_value(other, part))
                else:
                    w = Fraction(character_value(part, other), centralizer_order(other))
                if w:
                    step.extend((head + (other,), v * w) for head, v in images)
            images = step
        for head, w in images:
            for e, v in c.items():
                slot = out.setdefault(head, {})
                slot[e] = slot.get(e, 0) + v * w
    return {key: {e: v for e, v in poly.items() if v} for key, poly in out.items()}


@pytest.mark.parametrize("n", range(8, 15))
@pytest.mark.parametrize("target", [SCHUR, POWERSUM])
def test_change_basis_carry_bound_is_tight(n, target):
    to_schur = target == SCHUR
    height, denominator = 10**12 + 39, 3**5 * 7
    half = n // 2
    legs = [
        ((n,), [_largest_entry_position(n, to_schur)]),
        ((half, n - half), [_largest_entry_position(d, to_schur) for d in (half, n - half)]),
    ]
    for degrees, spots in legs:
        # the input index is mu to Schur (a column), lam to power sums (a row)
        key = tuple(mu if to_schur else lam for lam, mu, _ in spots)
        sign = 1
        for _, _, w in spots:
            sign *= 1 if w > 0 else -1
        coeff = QPoly({3: Fraction(sign * height, denominator)})
        terms = {key: coeff}
        top = height
        for _, _, w in spots:
            top *= abs(w)
        assert top >> (pack_terms(terms, target, degrees).bits - 2), "the bound is not reached"
        got = {k: dict(c.items()) for k, c in change_basis(terms, target, degrees).items()}
        assert got == _reference_change_basis({key: dict(coeff.items())}, target, degrees)


@pytest.mark.parametrize("n", range(1, 15))
def test_largest_character_value_is_the_largest_dimension(n):
    table = _table(n)
    assert _largest_entry(n, True) == max(max(table), -min(table))


# --- one-term conversions, read from a cache ---------------------------------


def _one_term_values():
    """Single-term SymFuncs and BiSymFuncs in both bases, with q-graded and
    fractional coefficients."""
    coeffs = (1, Fraction(-3, 7), QPoly({0: Fraction(1, 2), 3: -5}), QPoly.q(2))
    for n in (0, 1, 4, 6):
        for lam in partitions_of(n)[::2]:
            for c in coeffs:
                yield SymFunc(SCHUR, n, {lam: c})
                yield SymFunc(POWERSUM, n, {lam: c})
    for x, y in (((), (3, 1)), ((2,), (2, 1)), ((3, 1, 1), (1,))):
        for c in coeffs:
            yield BiSymFunc(SCHUR, sum(x), sum(y), {(x, y): c})
            yield BiSymFunc(POWERSUM, sum(x), sum(y), {(x, y): c})


def test_one_term_conversions_match_change_basis():
    for f in _one_term_values():
        target = SCHUR if f.basis == POWERSUM else POWERSUM
        got = f.to_schur() if target == SCHUR else f.to_powersum()
        legs = {f._legs(k): c for k, c in f.terms.items()}
        want = change_basis(legs, target, f._degrees)
        assert got.basis == target and got._degrees == f._degrees
        assert got.terms == {f._key(k): c for k, c in want.items()}


def test_one_term_conversion_returns_a_fresh_dict():
    for f in (
        schur((3, 1)),
        schur((3, 1), Fraction(2, 3)),
        BiSymFunc(POWERSUM, 2, 1, {((1, 1), (1,)): 1}),
        BiSymFunc(POWERSUM, 2, 1, {((1, 1), (1,)): QPoly.q()}),
    ):
        convert = f.to_schur if f.basis == POWERSUM else f.to_powersum
        first = convert()
        kept = dict(first.terms)
        first.terms.pop(next(iter(first.terms)))
        first.terms[next(iter(kept))[::-1]] = QPoly(99)
        assert convert().terms == kept
    assert schur((3, 1)).to_powersum().scale(Fraction(2, 3)).terms == (
        schur((3, 1), Fraction(2, 3)).to_powersum().terms
    )


def test_cross_basis_equality():
    f = schur((2,)) + schur((1, 1))
    assert f == powersum((1, 1))


# --- products ---------------------------------------------------------------


def test_powersum_product_is_union():
    f = powersum((2,)) * powersum((3, 1))
    assert f.terms == {(3, 2, 1): Fraction(1)}


def test_pieri_rule_example():
    assert schur((2, 1)) * schur((1,)) == (
        schur((3, 1)) + schur((2, 2)) + schur((2, 1, 1))
    )


def test_schur_square():
    assert schur((1,)) * schur((1,)) == schur((2,)) + schur((1, 1))


def test_scalar_and_qpoly_multiplication():
    f = schur((2,))
    assert (2 * f).coeff((2,)) == QPoly(2)
    g = QPoly.q() * f
    assert g.coeff((2,)) == QPoly.q()


# --- Kronecker product -------------------------------------------------------


def test_kron_sign_representation():
    sign = SymFunc(SCHUR, 3, {(1, 1, 1): 1})
    std = SymFunc(SCHUR, 3, {(2, 1): 1})
    assert sign.kron(sign) == schur((3,))
    assert sign.kron(std) == std


def test_kron_with_trivial_is_identity():
    triv = schur((4,))
    f = schur((2, 2)) + 2 * schur((3, 1))
    assert triv.kron(f) == f


def test_kron_degree_mismatch():
    with pytest.raises(ValueError):
        schur((2,)).kron(schur((3,)))


# --- plethysm ----------------------------------------------------------------


def _reference_pleth(f, g):
    """Plethysm with QPoly arithmetic throughout: each p_a o g is stretched
    term by term and multiplied out as dicts of QPolys."""
    f, g = f.to_powersum(), g.to_powersum()
    out = {}

    def add(terms, key, value):
        s = terms.get(key, QPoly(0)) + value
        if s.is_zero():
            terms.pop(key, None)
        else:
            terms[key] = s

    for lam, c in f.terms.items():
        running = {(): QPoly(1)}
        for a in lam:
            pa = {tuple(x * a for x in mu): qc.stretch(a) for mu, qc in g.terms.items()}
            nxt = {}
            for k1, c1 in running.items():
                for k2, c2 in pa.items():
                    add(nxt, union(k1, k2), c1 * c2)
            running = nxt
        for nu, qc in running.items():
            add(out, nu, qc * c)
    return SymFunc(POWERSUM, f.degree * g.degree, out)


def _assert_pleth_matches_reference(f, g):
    got, want = f.pleth(g), _reference_pleth(f, g)
    assert got.basis == POWERSUM and got.degree == want.degree
    assert got.terms == want.terms


@pytest.mark.parametrize("m", range(1, 5))
@pytest.mark.parametrize("l", range(1, 5))
def test_pleth_matches_reference_on_blowup_kernel_inputs(m, l):
    """The glued characters of a blow-up step: a q-graded outer operand with
    fractional coefficients, and h_(l+1) inside."""
    fiber, glue = blowup_fiber_character(m, l), complete(l + 1)
    for nu in partitions_of(m):
        projected = powersum(nu).kron(fiber)
        _assert_pleth_matches_reference(projected, glue)
        _assert_pleth_matches_reference(glue, projected)


def test_pleth_matches_reference_on_mixed_lengths_and_fractions():
    outer = SymFunc(POWERSUM, 4, {
        (4,): QPoly({0: Fraction(-2, 3), 2: 5}),
        (2, 1, 1): Fraction(7, 12),
        (1, 1, 1, 1): QPoly({1: Fraction(1, 24)}),
        (2, 2): -1,
    })
    inner = SymFunc(POWERSUM, 2, {(2,): QPoly({0: Fraction(1, 2), 1: -3}), (1, 1): Fraction(-5, 6)})
    _assert_pleth_matches_reference(outer, inner)
    _assert_pleth_matches_reference(inner, outer)
    _assert_pleth_matches_reference(schur((3, 1)) - schur((2, 2)).scale(Fraction(1, 9)), schur((2, 1)))
    for a, b in ((1, 1), (2, 3), (3, 2), (1, 4)):
        for lam in partitions_of(a):
            for mu in partitions_of(b):
                _assert_pleth_matches_reference(schur(lam), schur(mu))


def test_pleth_matches_reference_on_the_empty_partition_and_zero():
    g = SymFunc(POWERSUM, 2, {(2,): QPoly.q(), (1, 1): Fraction(1, 3)})
    constant = SymFunc(POWERSUM, 0, {(): QPoly({0: Fraction(-4, 5), 1: 2})})
    _assert_pleth_matches_reference(constant, g)
    _assert_pleth_matches_reference(powersum(()), g)
    _assert_pleth_matches_reference(g, powersum(()))
    zero0, zero3 = SymFunc(POWERSUM, 0), SymFunc(POWERSUM, 3)
    _assert_pleth_matches_reference(constant + zero0, zero3)
    for zero in (zero3, zero0):
        _assert_pleth_matches_reference(zero, g)
        assert zero.pleth(g).is_zero()
    _assert_pleth_matches_reference(g, zero3)
    assert g.pleth(zero3).is_zero() and g.pleth(zero3).degree == 6
    assert constant.pleth(zero3).terms == constant.terms


def test_plethysm_p2_in_p3():
    f = powersum((2,)).pleth(powersum((3,)))
    assert f.terms == {(6,): Fraction(1)}


def test_plethysm_exterior_square_of_standard2():
    # s_(1,1) o s_(2) = s_(3,1)
    assert schur((1, 1)).pleth(schur((2,))) == schur((3, 1))
    # s_(2) o s_(2) = s_(4) + s_(2,2)
    assert schur((2,)).pleth(schur((2,))) == schur((4,)) + schur((2, 2))


def test_plethysm_s2_in_s3():
    assert schur((2,)).pleth(schur((3,))) == schur((6,)) + schur((4, 2))
    assert schur((1, 1)).pleth(schur((3,))) == schur((5, 1)) + schur((3, 3))


def test_plethysm_q_twist():
    # p_2 o (q p_1) = q^2 p_2: inner q-exponents are stretched
    inner = SymFunc(POWERSUM, 1, {(1,): QPoly.q()})
    assert powersum((2,)).pleth(inner).coeff((2,)) == QPoly({2: 1})


def test_plethysm_outer_q_inert():
    # (q p_2) o g keeps the outer q untouched
    outer = SymFunc(POWERSUM, 2, {(2,): QPoly.q()})
    inner = SymFunc(POWERSUM, 1, {(1,): QPoly.q()})
    assert outer.pleth(inner).coeff((2,)) == QPoly({3: 1})


def test_plethysm_linearity_in_outer():
    g = schur((2,))
    f = schur((2,)) + schur((1, 1))
    assert f.pleth(g) == schur((2,)).pleth(g) + schur((1, 1)).pleth(g)


def test_plethysm_dimension_count():
    # s_(2) o s_(2,1) is the wreath induction from S_3[S_2] to S_6 of the
    # symmetric square of the standard character: dimension 10 * 2^2 = 40
    f = schur((2,)).pleth(schur((2, 1)))
    assert f.dimension_poly() == QPoly(40)


# --- derivative --------------------------------------------------------------


def test_pderiv_single_part():
    f = powersum((3, 2, 2))
    assert f.pderiv((2,)) == 2 * powersum((3, 2))
    assert f.pderiv((2, 2)) == powersum((3,))
    assert f.pderiv((1,)).is_zero()
    assert f.pderiv(()) == f


def test_pderiv_empty_result_degree():
    f = powersum((2, 1))
    g = f.pderiv((2, 1))
    assert g.degree == 0
    assert g == powersum(())


# --- gradings and dimensions -------------------------------------------------


def test_q_coefficient():
    f = QPoly.q() * schur((2,)) + schur((1, 1))
    assert f.q_coefficient(1) == schur((2,))
    assert f.q_coefficient(0) == schur((1, 1))
    assert f.q_coefficient(5).is_zero()


def test_dimension_poly():
    f = QPoly.q() * schur((2, 1)) + schur((3,))
    assert f.dimension_poly() == QPoly({1: 2, 0: 1})
    assert powersum(()).dimension_poly() == QPoly(1)


@given(partitions(max_size=6, min_size=1))
def test_dimension_agrees_across_bases(lam):
    f = schur(lam)
    assert f.dimension_poly() == f.to_powersum().dimension_poly()


# --- construction -------------------------------------------------------------


def test_homogeneity_enforced():
    with pytest.raises(ValueError):
        SymFunc(POWERSUM, 3, {(2,): 1})


def test_constructor_rejects_non_partitions():
    """A key must be a partition of the degree, not a reordering or a padding
    of one (the bases could not convert it), and the degree must be an int;
    a part 2.0 reads as 2 and repeated keys add up."""
    for basis, key in ((SCHUR, (1, 2)), (POWERSUM, (3, 0)), (SCHUR, ("3",)), (SCHUR, 3)):
        with pytest.raises(ValueError):
            SymFunc(basis, 3, {key: 1})
    with pytest.raises(TypeError):
        SymFunc(SCHUR, 2.7, {(2,): 1})
    f = SymFunc(SCHUR, 3, [((2.0, 1), 1), ([2, 1], 2), ((3,), 0)])
    assert f == schur((2, 1), 3) and type(next(iter(f.terms))[0]) is int


def test_add_requires_same_degree():
    with pytest.raises(ValueError):
        schur((2,)) + schur((3,))
