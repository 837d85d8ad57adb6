"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The extended diagonal run
(genus up to 27) is opt-in via --run-slow.
"""

from time import perf_counter

import pytest

from gapsets import (
    build_count_grid,
    diagonal_sequence,
    enumerate_gapsets,
    gapset,
    invariants,
    shift_blocks,
    stabilization_check,
    verify_bijection,
    widen_max_gap,
)
from gapsets.maps import (
    CLASS_GAPSET,
    CLASS_M_SET_NOT_GAPSET,
    CLASS_NOT_M_SET,
)
from gapsets.tally import sequence_lines
from gapsets.verification import run_suites

from expected_counts import (
    COUNTS_BY_KAPPA,
    DIAGONAL_CUMULATIVE,
    DIAGONAL_RATIOS,
    DIAGONAL_TERMS,
    GAPSET_COUNTS,
)
from oracles import brute_force_gapsets


def report(criterion, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {criterion:2}: {name}: {status}{suffix}")
    assert ok, f"criterion {criterion} ({name}) failed {suffix}"


@pytest.fixture(scope="module")
def grid19():
    t0 = perf_counter()
    grid = build_count_grid(19)
    return grid, perf_counter() - t0


def test_criterion_1_gapset_counts(grid19):
    grid, elapsed = grid19
    counts = [grid.row_sums[g] for g in range(20)]
    ok = counts == GAPSET_COUNTS and elapsed < 60.0
    report(1, "counts by genus up to 19", ok, f"{elapsed:.1f}s, n_19={counts[19]}")


def test_criterion_2_count_grid(grid19):
    grid, elapsed = grid19
    mismatches = []
    for g in range(20):
        expected_row = COUNTS_BY_KAPPA[g]
        actual_row = {k: n for (gg, k), n in grid.cells.items() if gg == g}
        if actual_row != expected_row:
            mismatches.append(g)
    spot = (
        grid.cells[(7, 3)] == 12
        and grid.cells[(12, 8)] == 30
        and grid.cells[(19, 2)] == 413
        and grid.cells[(18, 12)] == 167
    )
    ok = not mismatches and spot and elapsed < 60.0
    report(2, "full count grid to genus 19", ok, f"mismatched rows: {mismatches}")


def ratio_columns(terms):
    """The ratio and cumulative columns of the `sequence gw` rows."""
    rows = [line.split(",") for line in sequence_lines(terms)][1:]
    return [r for _, _, r, _ in rows], [c for _, _, _, c in rows]


def test_criterion_3_diagonal_sequence():
    t0 = perf_counter()
    seq = diagonal_sequence(7)
    elapsed = perf_counter() - t0
    ok = list(seq.terms) == DIAGONAL_TERMS[:8] and elapsed < 300.0
    report(3, "diagonal terms through w=7", ok, f"{seq.terms} in {elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_3_extended_diagonal():
    t0 = perf_counter()
    seq = diagonal_sequence(9)
    elapsed = perf_counter() - t0
    ok = list(seq.terms) == DIAGONAL_TERMS[:10] and elapsed < 1800.0
    rendered, cumulative = ratio_columns(seq.terms)
    ok = ok and rendered == DIAGONAL_RATIOS[:10] and cumulative == DIAGONAL_CUMULATIVE[:10]
    report(3, "extended diagonal through w=9", ok, f"{seq.terms[-2:]} in {elapsed:.1f}s")


def test_criterion_4_bijection():
    t0 = perf_counter()
    failures = []
    pairs = 0
    for g in range(16):
        for kappa in range(-(-2 * g // 3), g + 1):
            pairs += 1
            result = verify_bijection(g, kappa)
            if not result.bijective:
                failures.append((g, kappa))
    elapsed = perf_counter() - t0
    ok = not failures and elapsed < 120.0
    report(4, "widening bijection on every family", ok,
           f"{pairs} pairs in {elapsed:.1f}s, failures: {failures}")


def test_criterion_5_stabilization(grid19):
    grid, _ = grid19
    result = stabilization_check(grid)
    report(5, "below-diagonal count stabilization", result.ok,
           f"{result.pairs_checked} pairs, violations: {list(result.violations)}")


def test_criterion_6_oracle_equivalence():
    t0 = perf_counter()
    mismatches = []
    for g in range(9):
        tree = [x.elements for x in enumerate_gapsets(g)]
        brute = [x.elements for x in brute_force_gapsets(g)]
        if tree != brute:
            mismatches.append(g)
    elapsed = perf_counter() - t0
    ok = not mismatches and elapsed < 30.0
    report(6, "tree search equals brute force to genus 8", ok,
           f"{elapsed:.1f}s, mismatches: {mismatches}")


def test_criterion_7_property_suites():
    t0 = perf_counter()
    reports = run_suites(["core", "sparse", "phi"], 12)
    elapsed = perf_counter() - t0
    violations = [v for r in reports for v in r.violations]
    covered = reports[0].gapsets_covered
    ok = (
        not violations
        and covered == sum(GAPSET_COUNTS[: 12 + 1])
        and elapsed < 120.0
    )
    report(7, "property suites over genus <= 12", ok,
           f"{covered} gapsets, {sum(r.checks_run for r in reports)} checks, "
           f"{len(violations)} violations, {elapsed:.1f}s")


def test_criterion_8_counterexample_fidelity():
    first = widen_max_gap(gapset([1, 2, 3, 4, 6, 7, 9, 11, 14]))
    second = widen_max_gap(gapset(list(range(1, 10)) + [12, 13, 14, 17, 18, 23, 28]))
    third = widen_max_gap(gapset([1, 2, 4, 5, 7]))
    rec = invariants(gapset([1, 2, 4, 5, 7]))
    ok = (
        first.classification == CLASS_NOT_M_SET
        and second.classification == CLASS_M_SET_NOT_GAPSET
        and third.elements == (1, 2, 3, 5, 6, 9)
        and third.classification == CLASS_GAPSET
        and 2 * rec.genus > 3 * rec.kappa
    )
    report(8, "boundary images classified exactly", ok,
           f"{first.classification}, {second.classification}, {third.classification}")


def test_criterion_9_map_divergence():
    g10 = gapset(list(range(1, 10)) + [11, 19, 21])
    widened = widen_max_gap(g10).elements
    shifted = shift_blocks(g10)
    ok = (
        widened == tuple(range(1, 11)) + (12, 21, 23)
        and shifted == tuple(range(1, 11)) + (12, 20, 23)
        and widened != shifted
    )
    family_ok = True
    for g in range(12, 21):
        source = gapset(list(range(1, g - 2)) + [g - 1, 2 * g - 5, 2 * g - 3])
        if widen_max_gap(source).elements == shift_blocks(source):
            family_ok = False
    report(9, "gap-widening and block-shift maps diverge", ok and family_ok)


def test_criterion_10_ratio_rendering():
    seq = diagonal_sequence(6)
    (first_ratio, *rendered_ratios), rendered_cumulative = ratio_columns(seq.terms)
    expected_ratios = [2.000, 2.500, 2.400, 2.500, 2.333, 2.386]
    expected_cumulative = [1.0, 1.5, 1.6, 1.667, 1.667, 1.714, 1.719]
    ok = all(
        abs(float(actual) - want) <= 0.001
        for actual, want in zip(rendered_ratios, expected_ratios, strict=True)
    ) and all(
        abs(float(actual) - want) <= 0.001
        for actual, want in zip(rendered_cumulative, expected_cumulative, strict=True)
    )
    ok = ok and first_ratio == "-" and rendered_ratios == DIAGONAL_RATIOS[1:7]
    ok = ok and rendered_cumulative == DIAGONAL_CUMULATIVE[:7]
    report(10, "ratio columns render to the published values", ok,
           f"{rendered_ratios} / {rendered_cumulative}")
