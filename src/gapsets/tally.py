"""Count tables over (genus, maximum gap) and the below-diagonal sequence.

The grid holds #{gapsets of genus g with maximum gap k} for 1 <= k <= g
(plus the single genus-0 cell); row sums are the gapset counts by genus.
Cells with k > g are impossible and stay absent.  Below the 2g = 3k
diagonal, counts are invariant along (g, k) -> (g+1, k+1); the diagonal
itself gives the sequence #{pure 2w-sparse gapsets of genus 3w}.

The grid reads its cells from one count-only tree walk
(`enumeration._count_cells`) to its largest genus; each diagonal term
t(w) counts the records of its own kappa-pruned record walk
(`enumeration._iter_records(3w, kappa=2w)`, the walk `enumerate --pure`
lists), which visits only the gapsets that can end with maximum gap 2w.  No
`Gapset` objects are built, and the result types are named tuples, so
this module loads nothing beyond `enumeration`.  The `sequence gw` rows
are formatted from the integer terms, so only `diagonal_sequence`'s exact
ratios load `fractions`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, NamedTuple, Optional, Sequence

from .enumeration import _check_genus, _count_cells, _iter_records

if TYPE_CHECKING:
    from fractions import Fraction

RATIO_PLACEHOLDER = "-"


class CountGrid(NamedTuple):
    max_genus: int
    cells: dict[tuple[int, int], int]
    row_sums: dict[int, int]
    diagonal_marks: frozenset[tuple[int, int]]


class DiagonalSequence(NamedTuple):
    """Terms t[w] = #{pure 2w-sparse gapsets of genus 3w}, with the
    step ratios t[w]/t[w-1] (None at w=0) and the cumulative ratios
    sum(t[0..w]) / t[w], all kept exact."""

    terms: tuple[int, ...]
    ratios: tuple[Optional[Fraction], ...]
    cumulative_ratios: tuple[Fraction, ...]


class StabilizationReport(NamedTuple):
    pairs_checked: int
    violations: tuple[tuple[tuple[int, int], int, int], ...]  # ((g,k), count, next count)

    @property
    def ok(self) -> bool:
        return not self.violations


def build_count_grid(max_genus: int) -> CountGrid:
    """Exact counts for every genus up to max_genus, from one walk; the
    bounds are checked before the walk starts."""
    _check_genus(max_genus)
    rows = _count_cells(max_genus)
    cells = {(g, k): n for g, row in enumerate(rows) for k, n in enumerate(row) if n}
    row_sums = {g: sum(row) for g, row in enumerate(rows)}
    marks = frozenset(cell for cell in cells if 2 * cell[0] == 3 * cell[1])
    return CountGrid(max_genus, cells, row_sums, marks)


def diagonal_terms(max_w: int) -> list[int]:
    """Diagonal terms for w = 0..max_w, each counted from its own
    kappa-pruned walk to genus 3w; the bounds (genus 3 * max_w) are checked
    before any walk starts."""
    _check_genus(3 * max_w)
    # empty label pieces: the walk's labels are never read, only counted
    return [
        sum(1 for _ in _iter_records(3 * w, pieces=[""] * (6 * w + 2), kappa=2 * w))
        for w in range(max_w + 1)
    ]


def diagonal_sequence(max_w: int) -> DiagonalSequence:
    """`diagonal_terms` with their exact step and cumulative ratios."""
    from fractions import Fraction

    terms = diagonal_terms(max_w)
    ratios: list[Optional[Fraction]] = [None]
    ratios += [Fraction(terms[w], terms[w - 1]) for w in range(1, len(terms))]
    running = 0
    cumulative = []
    for t in terms:
        running += t
        cumulative.append(Fraction(running, t))
    return DiagonalSequence(tuple(terms), tuple(ratios), tuple(cumulative))


def stabilization_check(grid: CountGrid) -> StabilizationReport:
    """Assert count invariance along (g, k) -> (g+1, k+1) below the diagonal.

    Checks every cell with 2g <= 3k whose successor cell exists in the grid
    and reports each mismatch with its coordinates.
    """
    violations = []
    pairs = 0
    for (g, k) in sorted(grid.cells):
        if 2 * g > 3 * k:
            continue
        succ = (g + 1, k + 1)
        if succ not in grid.cells:
            continue
        pairs += 1
        if grid.cells[(g, k)] != grid.cells[succ]:
            violations.append(((g, k), grid.cells[(g, k)], grid.cells[succ]))
    return StabilizationReport(pairs, tuple(violations))


def _decimal(a: int, b: int, trim: bool = False) -> str:
    """a/b (a >= 0, b > 0) to three places, rounded half-up; with `trim`, a
    value exact in thousandths drops its trailing zeros ('1', '1.5')."""
    n = (2000 * a + b) // (2 * b)
    text = f"{n // 1000}.{n % 1000:03d}"
    return text.rstrip("0").rstrip(".") if trim and 1000 * a % b == 0 else text


def format_ratio(value: Optional[Fraction]) -> str:
    """Fixed three-decimal rendering with half-up rounding; '-' when undefined."""
    if value is None:
        return RATIO_PLACEHOLDER
    return _decimal(value.numerator, value.denominator)


def format_cumulative(value: Fraction) -> str:
    """Shortest exact decimal up to three places, else three-decimal half-up.

    An exact value drops `format_ratio`'s trailing zeros ('1', '1.5',
    '1.125'); everything else rounds to three places ('1.667').
    """
    return _decimal(value.numerator, value.denominator, trim=True)


def sequence_lines(terms: Sequence[int]) -> Iterator[str]:
    """The `w,g_w,ratio,cumulative` block of the diagonal terms: its
    header, then one row per term, with the ratios `format_ratio` and
    `format_cumulative` give, computed from the integers."""
    yield "w,g_w,ratio,cumulative"
    running = 0
    for w, term in enumerate(terms):
        running += term
        ratio = _decimal(term, terms[w - 1]) if w else RATIO_PLACEHOLDER
        yield f"{w},{term},{ratio},{_decimal(running, term, trim=True)}"
