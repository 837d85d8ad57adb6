from fractions import Fraction

import pytest

from gapsets import build_count_grid, diagonal_sequence, stabilization_check
from gapsets.tally import format_cumulative, format_ratio, sequence_lines

from expected_counts import (
    COUNTS_BY_KAPPA,
    DIAGONAL_CUMULATIVE,
    DIAGONAL_RATIOS,
    DIAGONAL_TERMS,
    GAPSET_COUNTS,
)


def test_grid_matches_published_counts_to_genus_12():
    grid = build_count_grid(12)
    for g in range(13):
        assert grid.row_sums[g] == GAPSET_COUNTS[g]
        row = {k: n for (gg, k), n in grid.cells.items() if gg == g}
        assert row == COUNTS_BY_KAPPA[g]


def test_grid_shape():
    grid = build_count_grid(6)
    assert (0, 0) in grid.cells
    assert all(k <= g for (g, k) in grid.cells)
    assert (6, 4) in grid.diagonal_marks and (3, 2) in grid.diagonal_marks
    assert (6, 5) not in grid.diagonal_marks
    # impossible cells stay absent rather than zero
    assert (2, 3) not in grid.cells and (5, 0) not in grid.cells


def test_diagonal_terms_and_ratios():
    seq = diagonal_sequence(6)
    assert list(seq.terms) == DIAGONAL_TERMS[:7]
    assert seq.ratios[0] is None
    assert seq.ratios[1] == Fraction(2)
    assert seq.cumulative_ratios[0] == Fraction(1)
    assert [format_ratio(r) for r in seq.ratios] == DIAGONAL_RATIOS[:7]
    assert [format_cumulative(c) for c in seq.cumulative_ratios] == DIAGONAL_CUMULATIVE[:7]
    # the `sequence gw` rows, formatted from the integer terms alone
    assert list(sequence_lines(seq.terms)) == ["w,g_w,ratio,cumulative"] + [
        f"{w},{t},{format_ratio(r)},{format_cumulative(c)}"
        for w, (t, r, c) in enumerate(zip(seq.terms, seq.ratios, seq.cumulative_ratios))
    ]


def test_integer_formatting_rounds_half_up_like_the_fraction():
    # a/b for every b <= 40 across ties (k/2000) and exact thousandths
    for b in range(1, 41):
        for a in range(0, 8 * b + 1):
            scaled = Fraction(a, b) * 1000
            n = (2 * scaled.numerator + scaled.denominator) // (2 * scaled.denominator)
            text = f"{n // 1000}.{n % 1000:03d}"
            assert format_ratio(Fraction(a, b)) == text, (a, b)
            short = text.rstrip("0").rstrip(".") if scaled.denominator == 1 else text
            assert format_cumulative(Fraction(a, b)) == short, (a, b)
    assert format_ratio(Fraction(1, 2000)) == "0.001"
    assert format_ratio(Fraction(2001, 2000)) == "1.001"


@pytest.mark.slow
def test_diagonal_through_w_10():
    # w = 10 is the last term under the genus-30 ceiling; its walk reaches genus 30
    seq = diagonal_sequence(10)
    assert list(seq.terms) == DIAGONAL_TERMS
    assert [format_ratio(r) for r in seq.ratios] == DIAGONAL_RATIOS
    assert [format_cumulative(c) for c in seq.cumulative_ratios] == DIAGONAL_CUMULATIVE


def test_diagonal_matches_grid_marks():
    grid = build_count_grid(12)
    seq = diagonal_sequence(4)
    for w in range(5):
        assert grid.cells[(3 * w, 2 * w)] == seq.terms[w]


def test_stabilization_below_the_diagonal():
    grid = build_count_grid(12)
    report = stabilization_check(grid)
    assert report.ok
    assert report.pairs_checked > 0
    # spot values stay constant along the (g+1, k+1) shift
    assert grid.cells[(6, 4)] == grid.cells[(7, 5)] == 5
    assert grid.cells[(9, 6)] == grid.cells[(10, 7)] == 12


@pytest.mark.slow
def test_stabilization_on_the_genus_27_grid():
    # the row sums are those of _count_cells(27), which the grid reads
    grid = build_count_grid(27)
    assert [grid.row_sums[g] for g in (25, 26, 27)] == [467224, 770832, 1270267]  # A007323
    report = stabilization_check(grid)
    assert report.pairs_checked == 135
    assert report.violations == ()


def test_stabilization_reports_a_planted_violation():
    grid = build_count_grid(9)
    cells = dict(grid.cells)
    cells[(7, 5)] += 1
    tampered = type(grid)(grid.max_genus, cells, grid.row_sums, grid.diagonal_marks)
    report = stabilization_check(tampered)
    assert not report.ok
    assert any(cell in {(6, 4), (7, 5)} for cell, _, _ in report.violations)


def test_ratio_rendering():
    assert format_ratio(None) == "-"
    assert format_ratio(Fraction(12, 5)) == "2.400"
    assert format_ratio(Fraction(7, 3)) == "2.333"
    assert format_ratio(Fraction(167, 70)) == "2.386"
    assert format_cumulative(Fraction(1)) == "1"
    assert format_cumulative(Fraction(3, 2)) == "1.5"
    assert format_cumulative(Fraction(8, 5)) == "1.6"
    assert format_cumulative(Fraction(5, 3)) == "1.667"
    assert format_cumulative(Fraction(12, 7)) == "1.714"
