"""Kernel mutants: small wrong edits of `src/gapsets/` that a named test
selection must catch.

Each entry gives the file under `src/gapsets/`, the exact old text (which
must occur there exactly once, so a refactor that moves the code fails
loudly instead of silently testing nothing), the new text, and the pytest
selection that must fail once the edit is applied.  `test_mutants.py`
applies each one to a temporary copy of `src/` under --run-slow.  A change
to a kernel adds the mutants of its own change here.
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    select: tuple[str, ...]


MUTANTS = (
    # the filter keeps maximum gap <= kappa instead of exactly kappa
    Mutant(
        "filter-keeps-at-most-kappa",
        "enumeration.py",
        "kappa_and_alpha(g)[0] == kappa)",
        "kappa_and_alpha(g)[0] <= kappa)",
        ("tests/test_enumeration.py::TestFilters",),
    ),
    # a repeated element passes the Gapset constructor's check
    Mutant(
        "gapset-accepts-repeats",
        "core.py",
        "            if v <= prev:\n",
        "            if v < prev:\n",
        ("tests/test_core.py::TestValueTypes",),
    ),
    # verify_bijection widens each source at an alpha one below its record's
    Mutant(
        "bijection-source-alpha-off-by-one",
        "maps.py",
        "image, imask = _widen(e, mask, alpha)",
        "image, imask = _widen(e, mask, alpha and alpha - 1)",
        ("tests/test_maps.py::TestBijection",),
    ),
    # narrowing shifts the tail down by one instead of two
    Mutant(
        "narrow-tail-shift-by-one",
        "maps.py",
        "return (low >> 1 | (mask ^ low) >> 2) & -2",
        "return (low >> 1 | (mask ^ low) >> 1) & -2",
        ("tests/test_maps.py::TestNarrow",),
    ),
    # a branch tally counts one row too many
    Mutant(
        "sparse-region-tally-off-by-one",
        "verification.py",
        "report.tally(_SPARSE_REGION, in_region)",
        "report.tally(_SPARSE_REGION, in_region + 1)",
        ("tests/test_verification.py::test_every_check_runs_as_often_as_before",),
    ),
    # a check that is still counted but no longer evaluated
    Mutant(
        "core-windows-check-not-evaluated",
        "verification.py",
        "if genus >= 2 and not _windows_empty(e, mask, m, c):",
        "if False and not _windows_empty(e, mask, m, c):",
        ("tests/test_verification.py::test_each_tallied_check_fails_alone",),
    ),
    # the count walk tallies a child two levels below x at x's own gap
    Mutant(
        "count-walk-level-g-2-row-at-parent-gap",
        "enumeration.py",
        "row1[k1] += 1",
        "row1[k] += 1",
        ("tests/test_enumeration.py::TestCountWalk",),
    ),
    # the in-place level G - 2 never records its siblings, so each of its
    # nodes loses the children it inherits from the siblings above it
    Mutant(
        "count-walk-rest1-never-updated",
        "enumeration.py",
        "rest1 |= b1",
        "rest1 |= 0",
        ("tests/test_enumeration.py::TestCountWalk",),
    ),
    # the count walk pushes a node of level G - 3 and finishes the wrong levels in place
    Mutant(
        "count-walk-pushes-level-g-3",
        "enumeration.py",
        "if j + 4 < max_genus:",
        "if j + 4 <= max_genus:",
        ("tests/test_enumeration.py::TestCountWalk",),
    ),
)
