"""Recursion engine tests: base levels, invariant-theory bases, fiber
characters, the blow-up corrections, and the disk cache."""

import hashlib
import json
import time
from pathlib import Path

import pytest

from equichar import moduli, symfunc
from equichar.bigraded import BiSymFunc
from equichar.cli import main
from equichar.moduli import (
    CacheError,
    CharacterCalculator,
    _divide_q3_minus_q,
    base_level,
    blowup_fiber_character,
    git_base_even,
    git_base_odd,
    git_polynomial,
)
from equichar.partitions import partitions_of
from equichar.qpoly import ExactDivisionError, QPoly
from equichar.symfunc import (
    POWERSUM,
    SCHUR,
    Packed,
    SymFunc,
    complete,
    convert_packed,
    pack_terms,
    powersum,
    schur,
)


def test_base_level_values():
    assert base_level(7, 0) == 3
    assert base_level(4, 2) == 2
    assert base_level(5, 1) == 3
    assert base_level(6, 6) == 1
    assert base_level(9, 4) == 5
    assert base_level(3, 0) == 1


def test_base_level_rejects():
    with pytest.raises(ValueError):
        base_level(2, 0)
    with pytest.raises(ValueError):
        base_level(5, 6)
    with pytest.raises(ValueError):
        base_level(5, -1)


def test_git_polynomial_small():
    # n=4: three splittings 4+0, 3+1, 2+2 with weights q^4-q, q^3-q^2, q^2-q^3
    expected = (
        (QPoly({4: 1, 1: -1}) * schur((4,))).to_powersum()
        + QPoly({3: 1, 2: -1}) * (schur((3,)) * schur((1,)))
        + QPoly({2: 1, 3: -1}) * (schur((2,)) * schur((2,)))
    )
    assert git_polynomial(4) == expected
    # odd n: the middle splitting weight q^3 - q^3 vanishes for n=5
    p5 = git_polynomial(5).to_schur()
    assert p5.coeff((3, 2)) == QPoly()
    assert p5.coeff((4, 1)) == QPoly({4: 1, 2: -1})


def test_fiber_character_values():
    # single collision point at level 2: one light point, weight q
    assert blowup_fiber_character(1, 2) == QPoly.q() * schur((1,))
    assert blowup_fiber_character(2, 2) == QPoly({2: 1}) * schur((2,))
    assert blowup_fiber_character(1, 1).is_zero()
    # level 3, one point: two strata positions contribute q and q^2
    assert blowup_fiber_character(1, 3) == QPoly({1: 1, 2: 1}) * schur((1,))


def test_fiber_character_level3_two_points():
    f = blowup_fiber_character(2, 3).to_schur()
    # slots (2,0), (1,1), (0,2) weighted q^2, q^3, q^4; the middle slot
    # carries s_1*s_1 = s_2 + s_(1,1)
    assert f.coeff((2,)) == QPoly({2: 1, 3: 1, 4: 1})
    assert f.coeff((1, 1)) == QPoly({3: 1})


def test_base_odd_small():
    e5 = git_base_odd(5).to_schur()
    assert e5.coeff((), (5,)) == QPoly({0: 1, 1: 1, 2: 1})
    assert e5.coeff((), (4, 1)) == QPoly({1: 1})
    e3 = git_base_odd(3).to_schur()
    assert e3.coeff((), (3,)) == QPoly(1)


def test_base_even_small():
    e4 = git_base_even(4).to_schur()
    assert e4.coeff((), (4,)) == QPoly({0: 1, 1: 1})
    assert e4.coeff((), (2, 2)) == QPoly()
    e6 = git_base_even(6).to_schur()
    assert e6.coeff((), (6,)) == QPoly({0: 1, 1: 2, 2: 2, 3: 1})
    assert e6.coeff((), (5, 1)) == QPoly({1: 1, 2: 1})
    assert e6.coeff((), (4, 2)) == QPoly({1: 1, 2: 1})
    assert e6.coeff((), (3, 3)) == QPoly()


@pytest.mark.parametrize("n", range(3, 16, 2))
def test_base_odd_divides_exactly(n):
    git_base_odd(n)  # raises ExactDivisionError on any remainder


@pytest.mark.parametrize("n", range(4, 17, 2))
def test_base_even_divides_exactly(n):
    git_base_even(n)


# -- the closed forms against their definitions ---------------------------
#
# The references below build the recursion inputs the long way: one-row Schur
# functions through the change of basis, products and plethysms in the
# kernel, and a division of every power-sum coefficient with `divexact`.


def embed_y(f):
    """The reference embedding of f on the y-leg, with an empty x-leg: 1 (x) f."""
    return BiSymFunc.tensor(powersum(()), f)


def _reference_git_polynomial(n):
    total = SymFunc(POWERSUM, n)
    for i in range(n // 2 + 1):
        weight = QPoly({n - i: 1}) - QPoly({i + 1: 1})
        right = schur((i,)).to_powersum() if i else powersum(())
        total = total + (schur((n - i,)).to_powersum() * right).scale(weight)
    return total


def _reference_divide(numerator):
    num = numerator.to_powersum()
    divisor = QPoly({3: 1, 1: -1})
    return SymFunc(POWERSUM, num.degree, {lam: c.divexact(divisor) for lam, c in num.terms.items()})


def _reference_git_base(n):
    if n % 2:
        return embed_y(_reference_divide(_reference_git_polynomial(n)))
    m = n // 2
    s_m = schur((m,)).to_powersum()
    numerator = (
        _reference_git_polynomial(n)
        - (s_m * s_m).scale(QPoly.q(m))
        + schur((2,)).pleth(s_m).scale(QPoly.q(1))
        + schur((1, 1)).pleth(s_m).scale(QPoly.q(2))
    )
    tail = schur((2,)).pleth(s_m.scale(QPoly.geometric(m - 1)))
    return embed_y(_reference_divide(numerator) + tail)


def _reference_fiber(m, l):
    total = SymFunc(POWERSUM, m)

    def compositions(remaining, slots):
        if slots == 0:
            if remaining == 0:
                yield ()
            return
        for first in range(remaining + 1):
            for rest in compositions(remaining - first, slots - 1):
                yield (first,) + rest

    for comp in compositions(m, l - 1):
        prod = powersum(())
        for c in comp:
            if c:
                prod = prod * schur((c,)).to_powersum()
        total = total + prod.scale(QPoly.q(sum((j + 1) * c for j, c in enumerate(comp))))
    return total


@pytest.mark.parametrize("n", range(1, 13))
def test_git_polynomial_matches_definition(n):
    assert git_polynomial(n) == _reference_git_polynomial(n)


@pytest.mark.parametrize("n", range(3, 13))
def test_git_base_matches_definition(n):
    base = git_base_odd(n) if n % 2 else git_base_even(n)
    assert base.basis == SCHUR
    assert base == _reference_git_base(n)


@pytest.mark.parametrize("n", range(3, 41))
def test_git_base_is_a_checked_two_row_sum(n):
    """Each GIT base is a sum of at most n//2 + 1 two-row shapes s_(n-j,j)
    and passes the character check as written, far past the reach of a
    power-sum form (p(40) = 37338)."""
    base = git_base_odd(n) if n % 2 else git_base_even(n)
    assert len(base.terms) <= n // 2 + 1
    assert all(lx == () and len(ly) <= 2 for lx, ly in base.terms)
    moduli._check_character((n, 0, base_level(n, 0)), base)


@pytest.mark.parametrize("m", range(13))
def test_complete_is_the_one_row_schur_function(m):
    assert complete(m) == (schur((m,)).to_powersum() if m else powersum(()))


@pytest.mark.parametrize("m", range(1, 7))
def test_fiber_character_matches_definition(m):
    for l in range(1, 6):
        assert blowup_fiber_character(m, l) == _reference_fiber(m, l)


def test_divide_q3_minus_q():
    # (q^3 - q)(2q^2 - 3) = 2q^5 - 5q^3 + 3q
    assert _divide_q3_minus_q({5: 2, 3: -5, 1: 3}) == {2: 2, 0: -3}
    assert _divide_q3_minus_q({}) == {}
    for numerator in ({0: 1}, {1: 1}, {2: 1}, {4: 1}, {5: 2, 3: -5, 1: 3, 0: 1}):
        with pytest.raises(ExactDivisionError):
            _divide_q3_minus_q(numerator)


@pytest.mark.parametrize("build", [git_base_odd, git_base_even])
def test_git_base_remainder_is_fatal(build, monkeypatch):
    real = moduli._git_numerators

    def off_by_one(n):
        out = real(n)
        out[(n,)][0] += 1
        return out

    monkeypatch.setattr(moduli, "_git_numerators", off_by_one)
    with pytest.raises(ExactDivisionError):
        build(7 if build is git_base_odd else 8)


def _reference_correction(calc, n, k, m, l):
    sub = calc.character(n - l * m, k + m, l + 1).to_powersum()
    fiber = _reference_fiber(m, l)
    glue = schur((l + 1,))
    total = BiSymFunc(POWERSUM, k, n - k)
    for nu in partitions_of(m):
        projected = powersum(nu).kron(fiber)
        total = total + sub.deriv_x(nu) * embed_y(projected.pleth(glue))
    return total


def _packed_correction(calc, n, k, m, l):
    """The level-l correction of stratum size m in Schur form, summed as the
    recursion sums it: `_correction` alone through `pack_terms`, then
    `convert_packed`."""
    sub = calc.character(n - l * m, k + m, l + 1).to_powersum()
    packed = pack_terms({}, SCHUR, (k, n - k), [calc._correction(sub, m, l)])
    return BiSymFunc._raw(SCHUR, k, n - k, convert_packed(packed))


def test_corrections_match_definition():
    calc = CharacterCalculator()
    checked = 0
    for n in range(3, 10):
        for k in range(n + 1):
            for l in range(2, n - k):
                for m in range(1, (n - k) // (l + 1) + 1):
                    if n - l * m < 3:
                        continue
                    expected = _reference_correction(calc, n, k, m, l)
                    assert _packed_correction(calc, n, k, m, l) == expected, (n, k, m, l)
                    checked += 1
    assert checked > 50


def _reference_level_step(calc, key):
    """E(key) as the operand plus or minus the corrections of its level,
    each sum of deriv_x(nu) * glued added with QPoly arithmetic."""
    n, k, l = key
    source, level, sign = (l + 1, l, 1) if k == 0 else (l - 1, l - 1, -1)
    total = calc.character(n, k, source).to_powersum()
    for m in range(1, (n - k) // (level + 1) + 1):
        correction = _reference_correction(calc, n, k, m, level)
        total = total + correction if sign > 0 else total - correction
    return total


def _is_level_step(key):
    n, k, l = key
    if n == 3 or k == n:
        return False
    return l < base_level(n, 0) if k == 0 else l >= 3


def test_level_steps_match_definition():
    """Every level step with n <= 10, summed packed, equals the operand plus
    or minus its corrections summed term by term."""
    calc = CharacterCalculator()
    keys = {
        calc.normalized_key(n, k, l)
        for n in range(3, 11)
        for k in range(n + 1)
        for l in range(1, base_level(n, k) + 1)
    }
    steps = sorted(key for key in keys if _is_level_step(key))
    for key in sorted(keys - set(steps)):
        assert not isinstance(calc._evaluate(key), Packed), key
    for n, k, l in steps:
        packed = calc._evaluate((n, k, l))
        value = BiSymFunc._raw(POWERSUM, k, n - k, packed.decode())
        assert value == _reference_level_step(calc, (n, k, l)), (n, k, l)
    assert len(steps) == 83


# sha256 of the compact Schur JSON of cold E(n, 0, 1),
# json.dumps(value.to_json_dict(), separators=(",", ":")).  The golden table
# stops at n = 8 and the benchmark gate at n = 14; these pin every byte of
# the output for n = 13..16.
FULL_CHARACTER_SHA256 = {
    13: "63db061dd1fd6bd0e9d3da0160c2607a5d13cf78d5b7d7bc8f66f9fe4a964a26",
    14: "b87b5346f1505b7c78fcd31c6c37d4a3d6ace63250bc5843dcd2d86d430a11a7",
    15: "bdd2aa7166dbab14ba5e7673ad20d253c4c77a2e0b5ba7833f8e4d7ad825171d",
    16: "f61d662492fe0dd2a43fe8eac548f9e02ace6bec86fe0e04cfe429ed3beb39fe",
}


def test_full_characters_13_to_16_are_frozen():
    calc = CharacterCalculator()
    for n, digest in FULL_CHARACTER_SHA256.items():
        text = json.dumps(calc.character(n).to_json_dict(), separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, n


# sha256 of the cache lines of every chamber E(n, k, l), n = 3..11,
# k = 0..n, l = 1..base_level(n, k), in that loop order (244 keys).
CHAMBERS_SHA256 = "bf2bdabc1c2dc6259cea2a67d0663db968194f73c6cba536477e5e43e24e41f1"


def test_chambers_3_to_11_are_frozen():
    calc, digest, count = CharacterCalculator(), hashlib.sha256(), 0
    for n in range(3, 12):
        for k in range(n + 1):
            for l in range(1, base_level(n, k) + 1):
                line = moduli.character_json((n, k, l), calc.character(n, k, l)) + "\n"
                digest.update(line.encode())
                count += 1
    assert count == 244
    assert digest.hexdigest() == CHAMBERS_SHA256


def test_normalized_key():
    calc = CharacterCalculator()
    assert calc.normalized_key(7, 0, 1) == (7, 0, 2)
    assert calc.normalized_key(7, 0, 9) == (7, 0, 3)
    assert calc.normalized_key(4, 0, 1) == (4, 0, 1)
    assert calc.normalized_key(6, 6, 5) == (6, 6, 1)
    assert calc.normalized_key(8, 1, 2) == (8, 1, 2)
    with pytest.raises(ValueError):
        calc.normalized_key(6, 0, 0)


def test_levels_collapse_to_same_character():
    calc = CharacterCalculator()
    assert calc.character(7, 0, 1) == calc.character(7, 0, 2)
    assert calc.character(6, 0, 4) == calc.character(6, 0, 2)


def swap_legs(f):
    """The reference leg swap: every key (lx, ly) becomes (ly, lx)."""
    return BiSymFunc(f.basis, f.ydeg, f.xdeg, {(ly, lx): c for (lx, ly), c in f.terms.items()})


def test_point_and_swap():
    calc = CharacterCalculator()
    # three points: the point, h_k (x) h_(3-k) at every level
    for k in range(4):
        point = BiSymFunc.tensor(*(schur((d,)) if d else powersum(()) for d in (k, 3 - k)))
        for l in range(1, 4):
            assert calc.character(3, k, l) == point, (k, l)
    # all points heavy: same space as all points light, legs swapped
    for n in range(3, 11):
        assert calc.character(n, n, 1) == swap_legs(calc.character(n, 0, 1)), n


def test_heavy_light_projective_space():
    """One heavy point at the stable base level gives projective space: the
    space is P^(n-3), so E = s_(1) (x) s_(n-1) times 1 + q + ... + q^(n-3)."""
    calc = CharacterCalculator()
    for n in range(4, 9):
        expected = BiSymFunc.tensor(schur((1,)), schur((n - 1,))).scale(QPoly.geometric(n - 2))
        assert calc.character(n, 1, base_level(n, 1)) == expected


def test_correction_terms_close_the_level_step():
    # crossing from level 3 to level 2 on seven points: the two collision
    # strata (one or two pairs of light points) account for the difference
    calc = CharacterCalculator()
    corr = _packed_correction(calc, 7, 0, 1, 2) + _packed_correction(calc, 7, 0, 2, 2)
    diff = calc.character(7, 0, 2) - calc.character(7, 0, 3)
    assert corr == diff
    assert not _packed_correction(calc, 7, 0, 1, 2).is_zero()


def test_effectivity_everywhere():
    calc = CharacterCalculator()
    for n in range(3, 9):
        value = calc.character(n)
        for coeff in value.terms.values():
            assert coeff.is_effective()


def test_poincare_polynomials():
    calc = CharacterCalculator()
    assert calc.poincare_polynomial(4) == QPoly({0: 1, 1: 1})
    assert calc.poincare_polynomial(5) == QPoly({0: 1, 1: 5, 2: 1})
    assert calc.poincare_polynomial(6) == QPoly({0: 1, 1: 16, 2: 16, 3: 1})


def test_cache_round_trip(tmp_path):
    cold = CharacterCalculator(cache_dir=tmp_path)
    value = cold.character(6)
    files = sorted(p.name for p in tmp_path.glob("E_*.json"))
    assert "E_6_0_2.json" in files
    warm = CharacterCalculator(cache_dir=tmp_path)
    assert warm.character(6) == value
    # warm run must not rewrite: byte-identical files
    before = {p.name: p.read_bytes() for p in tmp_path.glob("E_*.json")}
    again = CharacterCalculator(cache_dir=tmp_path)
    again.character(6)
    after = {p.name: p.read_bytes() for p in tmp_path.glob("E_*.json")}
    assert before == after


def test_cache_rejects_garbage(tmp_path):
    (tmp_path / "E_5_0_2.json").write_text("not json at all")
    calc = CharacterCalculator(cache_dir=tmp_path)
    with pytest.raises(CacheError):
        calc.character(5)


def test_cache_rejects_wrong_version(tmp_path):
    calc = CharacterCalculator(cache_dir=tmp_path)
    calc.character(5)
    path = tmp_path / "E_5_0_2.json"
    payload = json.loads(path.read_text())
    payload["v"] = 2
    path.write_text(json.dumps(payload))
    fresh = CharacterCalculator(cache_dir=tmp_path)
    with pytest.raises(CacheError, match="schema mismatch"):
        fresh.character(5)


def test_cache_rejects_key_mismatch(tmp_path):
    calc = CharacterCalculator(cache_dir=tmp_path)
    calc.character(5)
    path = tmp_path / "E_5_0_2.json"
    payload = json.loads(path.read_text())
    payload["n"] = 6
    path.write_text(json.dumps(payload))
    fresh = CharacterCalculator(cache_dir=tmp_path)
    with pytest.raises(CacheError, match="different key"):
        fresh.character(5)


def test_cache_rejects_tampered_coefficients(tmp_path):
    calc = CharacterCalculator(cache_dir=tmp_path)
    calc.character(5)
    path = tmp_path / "E_5_0_2.json"
    original = path.read_text()
    for bad in ("-1", "1/2", "1.5"):
        payload = json.loads(original)
        payload["terms"][0]["coeff"]["0"] = bad
        path.write_text(json.dumps(payload))
        fresh = CharacterCalculator(cache_dir=tmp_path)
        with pytest.raises(CacheError, match="verification"):
            fresh.character(5)


def test_cache_rejects_empty_terms(tmp_path):
    """A file with no terms is not the zero character: H^0 is never zero."""
    payload = {"v": 1, "n": 5, "k": 0, "l": 2, "basis": "schur", "bidegree": [0, 5], "terms": []}
    (tmp_path / "E_5_0_2.json").write_text(json.dumps(payload))
    with pytest.raises(CacheError, match="verification"):
        CharacterCalculator(cache_dir=tmp_path).character(5)


def _with_coeff(payload, coeff):
    payload["terms"][0]["coeff"] = coeff
    return payload


def _with(payload, **fields):
    payload.update(fields)
    return payload


def _with_term(payload, index, **fields):
    payload["terms"][index].update(fields)
    return payload


def _with_repeat(payload, coeff):
    """A second s_(4,1) term in front of the real one."""
    payload["terms"].insert(0, {"x": [], "y": [4, 1], "coeff": coeff})
    return payload


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda payload: [], id="list"),
        pytest.param(lambda payload: None, id="null"),
        pytest.param(lambda payload: 5, id="number"),
        pytest.param(lambda payload: _with_coeff(payload, ["0", "1"]), id="coeff-list"),
        pytest.param(lambda payload: _with_coeff(payload, "1"), id="coeff-string"),
        pytest.param(
            lambda payload: _with_coeff(payload, {"0": "1", "01": "1", "2": "1"}),
            id="coeff-exponent-leading-zero",
        ),
        pytest.param(lambda payload: _with(payload, basis="monomial"), id="unknown-basis"),
        pytest.param(lambda payload: _with_term(payload, 0, y=[4, 2]), id="term-size"),
        pytest.param(lambda payload: _with_term(payload, 0, y=[1, 4]), id="increasing-parts"),
        pytest.param(lambda payload: _with_repeat(payload, {"1": "7"}), id="repeated-term"),
        pytest.param(lambda payload: _with_repeat(payload, {}), id="repeated-zero-term"),
        pytest.param(lambda payload: _with_term(payload, 0, y=[4.9, 1]), id="fraction-part"),
        pytest.param(lambda payload: _with(payload, bidegree=["0", "5"]), id="bidegree-strings"),
        pytest.param(lambda payload: _with(payload, bidegree=[0.0, 5.0]), id="bidegree-floats"),
    ],
)
def test_cache_rejects_malformed_json(tmp_path, capsys, edit):
    """Valid JSON of the wrong shape is a CacheError, and `compute` exits 3:
    a file that is not an object, a coefficient that is not one, an unknown
    basis, a term that is no pair of partitions of the bidegree or that
    appears twice, an exponent key other than the one `to_json_dict`
    writes, and a bidegree that is not two ints."""
    CharacterCalculator(cache_dir=tmp_path).character(5)
    path = tmp_path / "E_5_0_2.json"
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    with pytest.raises(CacheError, match="JSON object|malformed"):
        CharacterCalculator(cache_dir=tmp_path).character(5)
    assert main(["compute", "--n", "5", "--cache", str(tmp_path)]) == 3
    assert "cache error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content",
    [pytest.param(b"\xff\xfe{}", id="not-utf8"), pytest.param(b"[" * 200000, id="nested-too-deep")],
)
def test_cache_rejects_undecodable_file(tmp_path, capsys, content):
    """A file that is not UTF-8, or whose JSON nests too deep to decode, is
    a CacheError naming the file, and `compute` exits 3 with one line on
    stderr, not as a usage error or with a traceback."""
    CharacterCalculator(cache_dir=tmp_path).character(5)
    path = tmp_path / "E_5_0_2.json"
    path.write_bytes(content)
    with pytest.raises(CacheError, match="unreadable cache file .*E_5_0_2.json"):
        CharacterCalculator(cache_dir=tmp_path).character(5)
    assert main(["compute", "--n", "5", "--cache", str(tmp_path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("equichar: cache error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("edge", ["0", "2"])
def test_cache_rejects_changed_edge_coefficient(tmp_path, edge):
    """Effective edits of the q^0 or q^(n-3) coefficient (here n = 5) are
    caught: both must be exactly the trivial character s_() (x) s_(5)."""
    CharacterCalculator(cache_dir=tmp_path).character(5)
    path = tmp_path / "E_5_0_2.json"
    original = json.loads(path.read_text())
    assert [t["y"] for t in original["terms"]] == [[4, 1], [5]]
    for index, value in ((1, "2"), (0, "1")):  # the trivial term doubled; s_(4,1) gains it
        payload = json.loads(json.dumps(original))
        payload["terms"][index]["coeff"][edge] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(CacheError, match="verification"):
            CharacterCalculator(cache_dir=tmp_path).character(5)


def test_cache_rejects_exponent_above_top(tmp_path, capsys):
    """E(5, 0, 2) lives in degrees 0..2: a q^5 part fails verification."""
    CharacterCalculator(cache_dir=tmp_path).character(5)
    path = tmp_path / "E_5_0_2.json"
    payload = json.loads(path.read_text())
    assert payload["terms"][0]["y"] == [4, 1]
    payload["terms"][0]["coeff"]["5"] = "1"
    path.write_text(json.dumps(payload))
    with pytest.raises(CacheError, match="verification"):
        CharacterCalculator(cache_dir=tmp_path).character(5)
    assert main(["compute", "--n", "5", "--format", "json", "--cache", str(tmp_path)]) == 3
    assert "q^5" not in capsys.readouterr().out


def test_cache_rejects_powersum_exponent_above_top_unconverted(tmp_path, capsys, monkeypatch):
    """The cache holds Schur forms only: a power-sum file is rejected before
    any change of basis, whose cost would grow with its q-exponents, so one
    with a q^100000 part exits 3 at once, with no conversion."""
    payload = {"v": 1, "n": 5, "k": 0, "l": 2, "basis": POWERSUM, "bidegree": [0, 5]}
    payload["terms"] = [
        {"x": [], "y": [5], "coeff": {"0": "1", "100000": "1"}},
        {"x": [], "y": [1, 1, 1, 1, 1], "coeff": {"0": "1"}},
    ]
    (tmp_path / "E_5_0_2.json").write_text(json.dumps(payload))
    conversions = []
    real_change_basis = symfunc.change_basis

    def counting(*args, **kwargs):
        conversions.append(args[1])
        return real_change_basis(*args, **kwargs)

    monkeypatch.setattr(symfunc, "change_basis", counting)
    with pytest.raises(CacheError, match="malformed.*basis 'powersum', want 'schur'"):
        CharacterCalculator(cache_dir=tmp_path).character(5)
    start = time.perf_counter()
    assert main(["compute", "--n", "5", "--cache", str(tmp_path)]) == 3
    assert time.perf_counter() - start < 1
    assert "cache error" in capsys.readouterr().err
    assert conversions == []


_E_5_0_2 = (
    '{"v":1,"n":5,"k":0,"l":2,"basis":"schur","bidegree":[0,5],"terms":'
    '[{"x":[],"y":[4,1],"coeff":{"1":"1"}},{"x":[],"y":[5],"coeff":{"0":"1","1":"1","2":"1"}}]}\n'
)


@pytest.mark.parametrize(
    "old, new",
    [
        pytest.param('"1":"1","2"', '"1":"7","1":"1","2"', id="repeated-exponent"),
        pytest.param('"basis":"schur"', '"basis":"schur","basis":"schur"', id="repeated-field"),
        pytest.param('"y":[5],', '"y":[5],"y":[5],', id="repeated-term-field"),
        pytest.param('"coeff":{"1":"1"}', '"coeff":{"1":"7"},"coeff":{"1":"1"}', id="repeated-coeff"),
        pytest.param('"l":2,', '"l":2,"note":"",', id="unknown-field"),
        pytest.param('"y":[5],', '"y":[5],"z":[],', id="unknown-term-field"),
    ],
)
def test_cache_rejects_repeated_key(tmp_path, capsys, old, new):
    """json.loads keeps the last of repeated keys; a file with a repeated or
    unknown key at any level is a CacheError and `compute` exits 3, although
    the value json.loads reads from it is a valid E(5, 0, 2)."""
    CharacterCalculator(cache_dir=tmp_path).character(5)
    path = tmp_path / "E_5_0_2.json"
    assert path.read_text() == _E_5_0_2
    path.write_text(_E_5_0_2.replace(old, new, 1))
    with pytest.raises(CacheError, match="malformed.*repeated or unknown"):
        CharacterCalculator(cache_dir=tmp_path).character(5)
    assert main(["compute", "--n", "5", "--cache", str(tmp_path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "cache error" in captured.err


def test_cache_rejects_broken_duality(tmp_path, capsys):
    """E(6, 0, 2) is the cohomology of a smooth projective 3-fold, so each
    Schur coefficient is a palindrome of degree 3: raising the q^1
    coefficient of s_(5,1) from 1 to 2 (Betti numbers 1,21,16,1 instead of
    1,16,16,1) fails verification, and `compute` and `betti` exit 3."""
    CharacterCalculator(cache_dir=tmp_path).character(6)
    path = tmp_path / "E_6_0_2.json"
    payload = json.loads(path.read_text())
    (term,) = [t for t in payload["terms"] if t["y"] == [5, 1]]
    assert term["coeff"] == {"1": "1", "2": "1"}
    term["coeff"]["1"] = "2"
    path.write_text(json.dumps(payload))
    with pytest.raises(CacheError, match="verification.*duality"):
        CharacterCalculator(cache_dir=tmp_path).character(6)
    for command in ("compute", "betti"):
        assert main([command, "--n", "6", "--cache", str(tmp_path)]) == 3
        captured = capsys.readouterr()
        assert "cache error" in captured.err and "21" not in captured.out


def test_check_rejects_computed_broken_duality():
    value = CharacterCalculator().character(7, 3, 2)
    moduli._check_character((7, 3, 2), value)
    term = next(t for t, c in value.terms.items() if c.coeff(1))
    broken = value + BiSymFunc(SCHUR, 3, 4, {term: QPoly.q()})
    with pytest.raises(ArithmeticError, match="duality"):
        moduli._check_character((7, 3, 2), broken)
    # the palindromic edit q + q^3 of the middle degree 2 keeps duality, but
    # not the Betti numbers of Keel's recursion
    kept = value + BiSymFunc(SCHUR, 3, 4, {term: QPoly({1: 1, 3: 1})})
    with pytest.raises(ArithmeticError, match="Betti"):
        moduli._check_character((7, 3, 2), kept)


# A new term of E(7, 3, 2) with coefficient q + q^3: an effective palindrome
# of degree 4, so duality holds, but not unimodal.
_NOT_UNIMODAL = ((1, 1, 1), (1, 1, 1, 1))


def test_check_rejects_computed_broken_hard_lefschetz():
    value = CharacterCalculator().character(7, 3, 2)
    assert _NOT_UNIMODAL not in value.terms
    broken = value + BiSymFunc(SCHUR, 3, 4, {_NOT_UNIMODAL: QPoly({1: 1, 3: 1})})
    with pytest.raises(ArithmeticError, match="Lefschetz"):
        moduli._check_character((7, 3, 2), broken)


def test_cache_rejects_broken_hard_lefschetz(tmp_path, capsys):
    CharacterCalculator(cache_dir=tmp_path).character(7, 3, 2)
    path = tmp_path / "E_7_3_2.json"
    payload = json.loads(path.read_text())
    x, y = _NOT_UNIMODAL
    payload["terms"].append({"x": list(x), "y": list(y), "coeff": {"1": "1", "3": "1"}})
    path.write_text(json.dumps(payload))
    with pytest.raises(CacheError, match="verification.*Lefschetz"):
        CharacterCalculator(cache_dir=tmp_path).character(7, 3, 2)
    argv = ["compute", "--n", "7", "--k", "3", "--l", "2", "--cache", str(tmp_path)]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert "cache error" in captured.err and captured.out == ""


def test_check_rejects_computed_exponent_above_top():
    value = CharacterCalculator().character(6, 2, 3)
    moduli._check_character((6, 2, 3), value)
    term = next(iter(value.terms))
    raised = value + BiSymFunc(SCHUR, 2, 4, {term: QPoly.q(4)})
    with pytest.raises(ArithmeticError, match="above"):
        moduli._check_character((6, 2, 3), raised)


def test_cache_rejects_changed_betti_numbers(tmp_path, capsys):
    """Raising the q^1 coefficient of s_(5) in E_5_0_2.json from 1 to 2
    keeps every coefficient an effective, unimodal palindrome, but the
    Betti numbers become 1,6,1, where Keel's recursion gives 1,5,1."""
    CharacterCalculator(cache_dir=tmp_path).character(5)
    path = tmp_path / "E_5_0_2.json"
    payload = json.loads(path.read_text())
    (term,) = [t for t in payload["terms"] if t["y"] == [5]]
    assert term["coeff"] == {"0": "1", "1": "1", "2": "1"}
    term["coeff"]["1"] = "2"
    path.write_text(json.dumps(payload))
    with pytest.raises(CacheError, match="verification.*Betti"):
        CharacterCalculator(cache_dir=tmp_path).character(5)
    assert main(["betti", "--n", "5", "--cache", str(tmp_path)]) == 3
    captured = capsys.readouterr()
    assert "cache error" in captured.err and captured.out == ""


def test_check_rejects_computed_changed_betti_numbers():
    """q^2 added to one term of the Losev-Manin key E(7, 2, 5) leaves the
    term an effective, unimodal palindrome; only the Eulerian count sees it."""
    value = CharacterCalculator().character(7, 2, 5)
    moduli._check_character((7, 2, 5), value)
    changed = value + BiSymFunc(SCHUR, 2, 5, {((1, 1), (4, 1)): QPoly.q(2)})
    with pytest.raises(ArithmeticError, match="Betti"):
        moduli._check_character((7, 2, 5), changed)


def test_cache_files_reencode_byte_identical(tmp_path):
    """Every file the chamber keys with n <= 9 write decodes, in a fresh
    calculator, to a value whose encoding is the file, byte for byte."""
    _fill_cache(tmp_path, 9)
    paths = sorted(tmp_path.glob("E_*.json"))
    warm = CharacterCalculator(cache_dir=tmp_path)
    for path in paths:
        n, k, l = (int(a) for a in path.stem.split("_")[1:])
        payload = {"v": 1, "n": n, "k": k, "l": l}
        payload.update(warm.character(n, k, l).to_json_dict())
        text = json.dumps(payload, separators=(",", ":")) + "\n"
        assert text.encode() == path.read_bytes(), path.name
    assert len(warm._schur) == len(paths) and not warm._powersum


def test_edge_coefficients_of_every_chamber_key():
    """The check `_store` applies, on every key with n <= 9: q^0 and q^(n-3)
    carry exactly s_(k) (x) s_(n-k)."""
    calc = _fill_cache(None, 9)
    for (n, k, _), value in calc._schur.items():
        trivial = ((k,) if k else (), (n - k,) if n - k else ())
        for edge in (0, n - 3):
            assert value.q_coefficient(edge).terms == {trivial: QPoly(1)}


def test_cache_write_interrupted_partway(tmp_path, monkeypatch):
    """A write that dies halfway leaves no cache file for its key."""
    reference = tmp_path / "reference"
    CharacterCalculator(cache_dir=reference).character(5)
    expected = {p.name: p.read_bytes() for p in reference.glob("E_*.json")}

    cache = tmp_path / "cache"
    real_write_text = Path.write_text

    def crash(path, text, *args, **kwargs):
        real_write_text(path, text[: len(text) // 2], *args, **kwargs)
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_text", crash)
    with pytest.raises(OSError, match="disk full"):
        CharacterCalculator(cache_dir=cache).character(5)
    monkeypatch.undo()
    assert list(cache.iterdir()) == []

    CharacterCalculator(cache_dir=cache).character(5)
    assert {p.name: p.read_bytes() for p in cache.glob("E_*.json")} == expected
    assert sorted(p.name for p in cache.iterdir()) == sorted(expected)


def test_cache_file_removed_before_read(tmp_path, monkeypatch):
    """A file that vanishes just before it is read, as under a concurrent
    `cache --clear`, is a miss: the key is computed and written again."""
    CharacterCalculator(cache_dir=tmp_path).character(5)
    expected = {p.name: p.read_bytes() for p in tmp_path.glob("E_*.json")}
    real_read_text = Path.read_text

    def clear_then_read(path, *args, **kwargs):
        path.unlink(missing_ok=True)
        return real_read_text(path, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", clear_then_read)
    value = CharacterCalculator(cache_dir=tmp_path).character(5)
    monkeypatch.undo()
    assert value == CharacterCalculator().character(5)
    assert {p.name: p.read_bytes() for p in tmp_path.glob("E_*.json")} == expected


def test_cache_clear_before_rename(tmp_path, monkeypatch):
    """A `cache --clear` that removes a writer's temporary file between its
    write and its rename skips that write: the value is still served, and
    neither a cache file nor a temporary file is left behind."""
    real_replace = moduli.os.replace

    def clear_then_replace(src, dst):
        main(["cache", "--clear", "--cache", str(tmp_path)])
        return real_replace(src, dst)

    monkeypatch.setattr(moduli.os, "replace", clear_then_replace)
    value = CharacterCalculator(cache_dir=tmp_path).character(5)
    monkeypatch.undo()
    assert value == CharacterCalculator().character(5)
    assert list(tmp_path.glob("E_*.json")) == []
    assert list(tmp_path.glob(".E_*.tmp")) == []


def _fill_cache(cache_dir, n_max: int) -> CharacterCalculator:
    """Request every chamber E(n, k, l) with 3 <= n <= n_max, writing the cache."""
    calc = CharacterCalculator(cache_dir=cache_dir)
    for n in range(3, n_max + 1):
        for k in range(n + 1):
            for l in range(1, base_level(n, k) + 1):
                calc.character(n, k, l)
    return calc


def test_warm_cache_does_no_change_of_basis(tmp_path, monkeypatch):
    cold = _fill_cache(tmp_path, 8)
    calls = []
    real_change_basis = symfunc.change_basis

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real_change_basis(*args, **kwargs)

    monkeypatch.setattr(symfunc, "change_basis", counting)
    keys = sorted(
        tuple(int(a) for a in path.stem.split("_")[1:]) for path in tmp_path.glob("E_*.json")
    )
    warm = CharacterCalculator(cache_dir=tmp_path)
    for key in keys:
        value = warm.character(*key)
        value.to_json_dict()
        assert value == cold.character(*key)
    assert calls == []
    # the counter sees the conversions of a key that is not cached
    warm.character(9)
    assert calls


def test_partial_cache_feeds_the_recursion(tmp_path, monkeypatch):
    """Keys loaded in Schur form are converted, once each, when an evaluation
    reads them, and every form leaves the memo after its last consumer: what
    stays is the full space E(10, 0, 1), kept under l = 2, and the last
    result."""
    _fill_cache(tmp_path, 9)
    keys = ((10, 0, 1), (10, 3, 4))
    cold = CharacterCalculator()
    expected = [cold.character(*key) for key in keys]
    evaluated = []
    real_evaluate = CharacterCalculator._evaluate

    def recording(self, key):
        evaluated.append(key)
        return real_evaluate(self, key)

    real_to_powersum = BiSymFunc.to_powersum
    converted = []

    def converting(self):
        converted.append(self)
        return real_to_powersum(self)

    monkeypatch.setattr(CharacterCalculator, "_evaluate", recording)
    monkeypatch.setattr(BiSymFunc, "to_powersum", converting)
    warm = CharacterCalculator(cache_dir=tmp_path)
    assert [warm.character(*key) for key in keys] == expected
    assert evaluated and all(n == 10 for n, _, _ in evaluated)
    read = {used for key in evaluated for used in moduli.consumed_keys(key)}
    loaded = read - set(evaluated)
    assert loaded and all(n < 10 for n, _, _ in loaded)
    bases = {key for key in evaluated if not moduli.consumed_keys(key)}  # the GIT base
    assert sorted(map(id, converted)) == sorted(id(warm._schur[key]) for key in loaded | bases)
    assert set(warm._powersum) == {(10, 0, 2), (10, 3, 4)}
    assert all(value.basis == POWERSUM for value in warm._powersum.values())


def test_evaluations_consume_the_listed_keys(monkeypatch):
    """For every normalized key with n <= 10, the power-sum forms that
    `_evaluate` reads through `_operand` are those `consumed_keys` lists, in
    its order."""
    evaluating, read = [], {}
    real_evaluate, real_operand = CharacterCalculator._evaluate, CharacterCalculator._operand

    def recording_evaluate(self, key):
        evaluating.append(key)
        read[key] = []
        try:
            return real_evaluate(self, key)
        finally:
            evaluating.pop()

    def recording_operand(self, key):
        read[evaluating[-1]].append(key)
        return real_operand(self, key)

    monkeypatch.setattr(CharacterCalculator, "_evaluate", recording_evaluate)
    monkeypatch.setattr(CharacterCalculator, "_operand", recording_operand)
    calc = _fill_cache(None, 10)
    keys = {
        calc.normalized_key(n, k, l)
        for n in range(3, 11)
        for k in range(n + 1)
        for l in range(1, base_level(n, k) + 1)
    }
    assert set(read) == keys
    for key in keys:
        assert read[key] == moduli.consumed_keys(key), key
    assert sum(map(len, read.values())) > len(keys)


def _is_full_space(key):
    n, k, l = key
    return k == 0 and key == moduli._normalized(n, 0, 1)


def test_cold_request_keeps_only_full_space_forms(monkeypatch):
    """After a cold E(14, 0, 1) every other working form has met its last
    consumer and left the memo, and none left it early: the only forms
    converted from Schur form are the GIT bases'.  The Schur forms all stay."""
    conversions = []
    real_to_powersum = BiSymFunc.to_powersum

    def counting(self):
        conversions.append(self.basis)
        return real_to_powersum(self)

    monkeypatch.setattr(BiSymFunc, "to_powersum", counting)
    calc = CharacterCalculator()
    calc.character(14)
    assert calc._powersum and all(map(_is_full_space, calc._powersum))
    assert (14, 0, 2) in calc._powersum and (12, 0, 2) in calc._powersum
    assert len(calc._schur) > 3 * len(calc._powersum)
    bases = [(n, k, l) for n, k, l in calc._schur if n > 3 and k == 0 and l == base_level(n, 0)]
    assert conversions.count(SCHUR) == len(bases) > 0


def test_later_requests_keep_only_their_results():
    """Requests after a cold E(14, 0, 1) read forms an earlier request
    dropped, rebuilt from Schur form, and drop them again; what stays beyond
    the full-space forms is each request's result, until a later request
    consumes it."""
    calc = CharacterCalculator()
    calc.character(14)
    results = []
    for key in ((14, 3, 6), (14, 1, 8), (14, 2, 9)):
        calc.character(*key)
        results.append(key)
        assert sorted(key for key in calc._powersum if not _is_full_space(key)) == sorted(results)
    calc.character(14, 2, 10)  # its operand is (14, 2, 9)
    assert (14, 2, 9) not in calc._powersum and (14, 2, 10) in calc._powersum


def test_forms_dropped_after_every_evaluation_are_rebuilt(monkeypatch):
    """With every use count one, each form but E(n, 0, 1) leaves the memo
    after the first evaluation that reads it and is converted again from
    its Schur form for the next: cold E(n, 0, 1) for n <= 12 and every
    chamber key with n <= 9 still equal a normal calculator's."""
    conversions = []
    real_to_powersum = BiSymFunc.to_powersum

    def counting(self):
        conversions.append(self.basis)
        return real_to_powersum(self)

    monkeypatch.setattr(BiSymFunc, "to_powersum", counting)
    expected_full = {n: CharacterCalculator().character(n) for n in range(3, 13)}
    expected_chambers = _fill_cache(None, 9)._schur
    normal = conversions.count(SCHUR)
    conversions.clear()
    real_plan = CharacterCalculator._plan

    def counting_once(self, key):
        order, uses = real_plan(self, key)
        return order, dict.fromkeys(uses, 1)

    monkeypatch.setattr(CharacterCalculator, "_plan", counting_once)
    for n, expected in expected_full.items():
        assert CharacterCalculator().character(n) == expected, n
    assert _fill_cache(None, 9)._schur == expected_chambers
    assert conversions.count(SCHUR) > normal


def test_served_requests_run_no_walk(tmp_path, monkeypatch):
    """The plan walks once per request that must evaluate, and never for a
    key served from memory or from the cache."""
    walks = []
    real_plan = CharacterCalculator._plan

    def recording(self, key):
        walks.append(key)
        return real_plan(self, key)

    monkeypatch.setattr(CharacterCalculator, "_plan", recording)
    calc = CharacterCalculator(cache_dir=tmp_path)
    calc.character(9, 2, 4)
    assert walks == [(9, 2, 4)]
    calc.character(9, 2, 4)
    calc.character(9, 0, 1)
    calc.character(7, 3, 3)
    assert walks == [(9, 2, 4)]
    warm = CharacterCalculator(cache_dir=tmp_path)
    for path in tmp_path.glob("E_*.json"):
        warm.character(*(int(a) for a in path.stem.split("_")[1:]))
    assert walks == [(9, 2, 4)] and warm._powersum == {}


def test_requests_leave_no_per_request_state(monkeypatch):
    """A calculator holds only its memos and its cache directory between
    requests, also after a request that failed halfway: the next request
    plans afresh and serves what a fresh calculator serves."""
    calc = CharacterCalculator()
    calc.character(8, 2, 3)
    assert set(vars(calc)) == {"_powersum", "_schur", "cache_dir"}
    real_check = moduli._check_character
    failed = []

    def failing_once(key, value):
        if key == (9, 0, 3) and not failed:
            failed.append(key)
            raise ArithmeticError("injected")
        real_check(key, value)

    monkeypatch.setattr(moduli, "_check_character", failing_once)
    with pytest.raises(ArithmeticError, match="injected"):
        calc.character(9)
    assert failed == [(9, 0, 3)] and (9, 0, 2) not in calc._schur
    assert set(vars(calc)) == {"_powersum", "_schur", "cache_dir"}
    assert calc.character(9) == CharacterCalculator().character(9)


def test_plan_lists_each_key_after_its_operands():
    """For every normalized key with n <= 10, the plan of a fresh
    calculator lists each key once, after every key it consumes, ends with
    the key, and counts exactly the listed evaluations that consume each
    form."""
    calc = CharacterCalculator()
    keys = {
        calc.normalized_key(n, k, l)
        for n in range(3, 11)
        for k in range(n + 1)
        for l in range(1, base_level(n, k) + 1)
    }
    for key in keys:
        order, uses = calc._plan(key)
        position = {step: i for i, step in enumerate(order)}
        assert len(position) == len(order) and order[-1] == key
        consumers = {}
        for step in order:
            for used in moduli.consumed_keys(step):
                assert position[used] < position[step], (key, step, used)
                consumers[used] = consumers.get(used, 0) + 1
        assert uses == consumers, key
    assert calc._schur == {} and calc._powersum == {}
    for n, planned in ((14, 82), (22, 304)):  # cold E(n, 0, 1)
        assert len(calc._plan(calc.normalized_key(n, 0, 1))[0]) == planned


@pytest.mark.parametrize("key", [(7, 0, 2.5), (6, 1.0, 2)])
def test_non_integer_key_fails_before_any_work(tmp_path, key):
    calc = CharacterCalculator(cache_dir=tmp_path)
    with pytest.raises(TypeError):
        calc.character(*key)
    assert list(tmp_path.iterdir()) == []
    assert calc._schur == {}


def test_invalid_arguments():
    calc = CharacterCalculator()
    with pytest.raises(ValueError):
        calc.character(2)
    with pytest.raises(ValueError):
        calc.character(5, 6)
    with pytest.raises(ValueError):
        calc.character(5, 0, 0)
