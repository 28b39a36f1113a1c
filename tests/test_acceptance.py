"""Acceptance suite.

Each test is one acceptance criterion and prints one PASS line; the verbose
pytest report therefore shows one pass/fail line per criterion.
"""

import random

import pytest

from equichar.cli import main
from equichar.lengths import length_theorem_report
from equichar.moduli import git_base_even, git_base_odd
from equichar.qpoly import QPoly
from equichar.verify import (
    KNOWN_CHARACTERS,
    known_character,
    run_oracles,
    run_paper_examples,
)

EXPECTED_BETTI = {
    4: [1, 1],
    5: [1, 5, 1],
    6: [1, 16, 16, 1],
    7: [1, 42, 127, 42, 1],
    8: [1, 99, 715, 715, 99, 1],
}


def _betti(poly: QPoly) -> list[int]:
    return [int(poly.coeff(i)) for i in range(poly.degree + 1)]


def test_criterion_1_golden_formulas(calculator):
    """All nine printed closed forms reproduce exactly."""
    result = run_paper_examples(calculator)
    failures = [c.name for c in result.checks if not c.ok]
    assert not failures, f"golden mismatches: {failures}"
    assert result.passed == len(KNOWN_CHARACTERS) == 9
    print("PASS criterion 1: 9/9 golden closed forms reproduced exactly")


def test_criterion_2_base_division_exact():
    """Invariant-theory bases divide out (q^3 - q) with zero remainder."""
    for n in range(3, 16, 2):
        assert git_base_odd(n).bidegree == (0, n)
    for n in range(4, 17, 2):
        assert git_base_even(n).bidegree == (0, n)
    print("PASS criterion 2: exact base division for odd n <= 15, even n <= 16")


def test_criterion_3_poincare_duality(calculator):
    """q^(n-3) E(n,0,1)(1/q) = E(n,0,1)(q) for 3 <= n <= 12."""
    for n in range(3, 13):
        full = calculator.character(n, 0, 1)
        for lam, coeff in full.terms.items():
            assert coeff.reflect(n - 3) == coeff, f"duality fails at n={n}, {lam}"
    print("PASS criterion 3: Poincare duality exact for 3 <= n <= 12")


def test_criterion_4_length_theorem_sweep(calculator):
    """Lengths hit min(i+1, n-i-2); exceptional degrees carry the expected
    leading partition with multiplicity one; the column property holds on
    every non-exceptional interior degree."""
    problems = []
    for n in range(3, 13):
        problems += length_theorem_report(n, calculator).problems()
    assert not problems, problems
    print("PASS criterion 4: length analysis exact for 3 <= n <= 12")


@pytest.fixture(scope="module")
def oracle_result():
    return run_oracles()


def test_criterion_5_oracle_equivalence(oracle_result):
    """Conversion, plethysm, and product agree with independent oracles."""
    by_name = {c.name: c for c in oracle_result.checks}
    for name in (
        "jacobi-trudi vs murnaghan-nakayama |lam|<=8",
        "plethysm vs monomial substitution",
        "product vs expanded multiplication (100 random pairs)",
        "betti numbers of E(n,0,1) vs keel's recursion n<=12",
        "betti numbers of E(n,2,n-2) vs eulerian numbers n<=12",
    ):
        assert by_name[name].ok, f"{name}: {by_name[name].detail}"
    print("PASS criterion 5: kernel agrees with Jacobi-Trudi, substitution, and expansion "
          "oracles; Betti numbers agree with Keel and Eulerian for n <= 12")


def test_criterion_6_leading_partition_properties(oracle_result):
    """Leading partitions multiply by multiset union and follow the plethysm
    closed form."""
    by_name = {c.name: c for c in oracle_result.checks}
    for name in (
        "leading partition is multiplicative (200 random pairs)",
        "leading partition of s_mu o s_(m), closed form",
    ):
        assert by_name[name].ok, f"{name}: {by_name[name].detail}"
    print("PASS criterion 6: leading-partition union rule and plethysm closed form verified")


def test_criterion_7_betti_vectors(calculator):
    """Graded dimensions match the hook specialization of the golden forms."""
    for n in (6, 7, 8):
        golden = known_character(n, 0, 1).dimension_poly()
        computed = calculator.poincare_polynomial(n)
        assert computed == golden, f"n={n}: {computed} != {golden}"
        assert _betti(computed) == EXPECTED_BETTI[n]
    for n in (4, 5):
        assert _betti(calculator.poincare_polynomial(n)) == EXPECTED_BETTI[n]
    print("PASS criterion 7: Betti vectors for n = 6, 7, 8 match the golden specialization")


def test_criterion_8_cache_determinism(tmp_path, capsys):
    """Cold-cache and warm-cache runs emit byte-identical output, n <= 10."""
    for n in range(3, 11):
        for fmt in ("text", "json"):
            cache = tmp_path / f"n{n}_{fmt}"
            assert main(["compute", "--n", str(n), "--format", fmt,
                         "--cache", str(cache)]) == 0
            cold = capsys.readouterr().out
            files = {p.name: p.read_bytes() for p in cache.glob("E_*.json")}
            assert main(["compute", "--n", str(n), "--format", fmt,
                         "--cache", str(cache)]) == 0
            warm = capsys.readouterr().out
            assert warm == cold, f"output drift at n={n} format={fmt}"
            after = {p.name: p.read_bytes() for p in cache.glob("E_*.json")}
            assert after == files, f"cache files rewritten at n={n}"
    print("PASS criterion 8: warm and cold cache runs byte-identical for n <= 10")
