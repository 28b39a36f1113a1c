import pytest
from hypothesis import given, strategies as st

from equichar.lengths import (
    LengthReport,
    LengthRow,
    exceptional_degrees,
    exceptional_lambda,
    leading_partition,
    length_bound,
    length_theorem_report,
    plethysm_leading_partition,
    star_applicable,
    star_property,
)
from equichar.partitions import partitions_of, union
from equichar.qpoly import QPoly
from equichar.symfunc import SCHUR, SymFunc, schur


def test_leading_partition_column_order():
    f = schur((4,)) + schur((3, 1)) + schur((2, 2))
    assert leading_partition(f) == (2, 2)
    assert len(leading_partition(f)) == 2 == max(len(lam) for lam in f.terms)


def test_leading_partition_rejects_zero():
    with pytest.raises(ValueError):
        leading_partition(SymFunc(SCHUR, 3))


def test_leading_partition_of_powersum_input():
    # p_(1,1,1) = s_3 + 2 s_21 + s_111: conversion happens internally
    from equichar.symfunc import powersum

    f = powersum((1, 1, 1))
    assert leading_partition(f) == (1, 1, 1)
    assert len(leading_partition(f)) == 3 == max(len(lam) for lam in f.to_schur().terms)


def test_star_property():
    # n=7, i=2: bound 3; (3,2,2) has column heights (3,3,1): first two hit
    # the bound and a third column exists
    assert star_property((3, 2, 2), 7, 2)
    assert not star_property((4, 3), 7, 2)  # columns (2,2,2,1): too short
    assert not star_property((3, 3, 1), 7, 2)  # columns (3,2,2): second misses
    # n=7, i=1: bound 2; need exactly two rows, both >= 2, one >= 3
    assert star_property((5, 2), 7, 1)
    assert star_property((4, 3), 7, 1)
    assert not star_property((2, 2, 1, 1, 1), 7, 1)
    assert not star_property((5, 1, 1), 7, 1)


def test_star_property_size_check():
    with pytest.raises(ValueError):
        star_property((3, 1), 7, 1)


def test_exceptional_degrees():
    assert exceptional_degrees(8) == frozenset({2, 3})
    assert exceptional_degrees(7) == frozenset({2})
    assert exceptional_degrees(12) == frozenset({4, 5})
    assert exceptional_degrees(5) == frozenset({1})


def test_exceptional_lambda():
    assert exceptional_lambda(8, 2) == (4, 2, 2)
    assert exceptional_lambda(8, 3) == (4, 2, 2)
    assert exceptional_lambda(7, 2) == (4, 2, 1)
    assert exceptional_lambda(7, 1) is None
    assert exceptional_lambda(5, 1) == (4, 1)
    with pytest.raises(ValueError):
        exceptional_lambda(8, 9)


def test_plethysm_leading_partition_closed_form():
    # odd inner degree keeps mu, even inner degree transposes it
    assert plethysm_leading_partition((2,), 3) == (4, 2)
    assert plethysm_leading_partition((1, 1), 3) == (3, 3)
    assert plethysm_leading_partition((2,), 2) == (2, 2)
    assert plethysm_leading_partition((1, 1), 2) == (3, 1)
    assert plethysm_leading_partition((2, 1), 1) == (2, 1)
    assert plethysm_leading_partition((), 5) == ()


@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.sampled_from(partitions_of(n))
    ),
    st.integers(min_value=1, max_value=4),
)
def test_plethysm_leading_partition_matches_kernel(mu, m):
    predicted = plethysm_leading_partition(mu, m)
    actual = leading_partition(schur(mu).pleth(schur((m,))))
    assert predicted == actual


@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.sampled_from(partitions_of(n))
    ),
    st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.sampled_from(partitions_of(n))
    ),
)
def test_leading_partition_multiplicative(lam, mu):
    f = schur(lam)
    g = schur(mu)
    assert leading_partition(f * g) == union(lam, mu)


def test_report_small_n():
    report = length_theorem_report(5)
    assert report.n == 5
    assert [row.i for row in report.rows] == [0, 1, 2]
    assert report.ok
    row = report.rows[1]
    assert row.w == (4, 1)
    assert row.lambda_mult == 1
    assert length_bound(5, 1) == 2


def test_report_n7_base_case():
    report = length_theorem_report(7)
    assert report.ok
    by_i = {row.i: row for row in report.rows}
    assert by_i[2].w == (4, 2, 1)
    assert by_i[2].lambda_mult == 1
    assert by_i[1].star_holds
    assert by_i[3].star_holds
    assert not by_i[0].star_holds  # edge degree: not asserted
    assert by_i[0].length == 1


def test_report_json_shape():
    report = length_theorem_report(4)
    payload = report.to_json_dict()
    assert payload["n"] == 4
    assert payload["rows"][0] == {
        "i": 0,
        "length": 1,
        "w": [4],
        "star": False,
        "lambda_mult": 1,
    }


def test_report_problems_detects_bad_rows():
    good = length_theorem_report(6)
    assert good.problems() == []
    bad = LengthReport(
        n=6,
        rows=[LengthRow(i=1, length=5, w=(4, 2), star_holds=False, lambda_mult=2)],
    )
    issues = bad.problems()
    assert any("length" in p for p in issues)
    assert any("multiplicity" in p for p in issues)


def test_star_applicability_window():
    report = length_theorem_report(9)
    # A_9 = {3}; applicable degrees are 1..5 without 3
    assert star_applicable(9, 1)
    assert star_applicable(9, 5)
    assert not star_applicable(9, 3)
    assert not star_applicable(9, 0)
    assert not star_applicable(9, 6)
    assert report.ok
