"""Recursion engine tests: base levels, invariant-theory bases, fiber
characters, the blow-up corrections, and the disk cache."""

import json
from pathlib import Path

import pytest

from equichar.bigraded import BiSymFunc
from equichar.moduli import (
    CacheError,
    CharacterCalculator,
    base_level,
    blowup_fiber_character,
    git_base_even,
    git_base_odd,
    git_polynomial,
    projective_space_character,
)
from equichar.qpoly import QPoly
from equichar.symfunc import schur


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


def test_point_and_swap():
    calc = CharacterCalculator()
    e3 = calc.character(3, 2, 3)
    assert e3 == BiSymFunc.tensor(schur((2,)), schur((1,)))
    # all points heavy: same space as all points light, legs swapped
    full = calc.character(5, 0, 1)
    assert calc.character(5, 5, 1) == full.swap_legs()


def test_heavy_light_projective_space():
    """One heavy point at the stable base level gives projective space."""
    calc = CharacterCalculator()
    for n in range(4, 9):
        expected = projective_space_character(n)
        assert calc.character(n, 1, base_level(n, 1)) == expected


def test_correction_term_validation():
    calc = CharacterCalculator()
    with pytest.raises(ValueError):
        calc.blowup_correction(7, 0, 1, 1)
    with pytest.raises(ValueError):
        calc.blowup_correction(7, 0, 3, 2)
    with pytest.raises(ValueError):
        calc.blowup_correction(6, 0, 2, 2)  # n - lm = 2: no stratum


def test_correction_terms_close_the_level_step():
    # crossing from level 3 to level 2 on seven points: the two collision
    # strata (one or two pairs of light points) account for the difference
    calc = CharacterCalculator()
    corr = calc.blowup_correction(7, 0, 1, 2) + calc.blowup_correction(7, 0, 2, 2)
    diff = calc.character(7, 0, 2) - calc.character(7, 0, 3)
    assert corr == diff
    assert not calc.blowup_correction(7, 0, 1, 2).is_zero()


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
    for bad in ("-1", "1/2"):
        payload = json.loads(original)
        payload["terms"][0]["coeff"]["0"] = bad
        path.write_text(json.dumps(payload))
        fresh = CharacterCalculator(cache_dir=tmp_path)
        with pytest.raises(CacheError, match="verification"):
            fresh.character(5)


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


def test_invalid_arguments():
    calc = CharacterCalculator()
    with pytest.raises(ValueError):
        calc.character(2)
    with pytest.raises(ValueError):
        calc.character(5, 6)
    with pytest.raises(ValueError):
        calc.character(5, 0, 0)
