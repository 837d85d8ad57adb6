"""Executable property suites over enumerated gapsets.

Each suite sweeps every gapset up to a genus bound and records violations
as structured witnesses instead of raising, so a full run reports all
failures in enumeration (lexicographic) order.  The suites encode the
structural facts the rest of the package relies on: invariant bounds and
consistency, pure-sparse inequalities, behaviour of the gap-widening map,
and the widening bijection with its count stabilization.

One walk per genus feeds every suite, and it is the only way rows reach
a suite: `_run(names, max_genus, records)` reads genus 0..G in turn with
`records` (for `run_suites`, one `_iter_records` walk), passes that
genus's records (elements, last, m, kappa, alpha), unchanged and wrapped
in no `Gapset`, to the body of every selected suite, and drops them
before it reads the next genus.  No body keeps anything of a genus past
its loop, so a run holds one genus at a time.  Phi's small-m-set sweep
and the bijection suite's grid-stabilization check run once, after the
last genus.

Values from the record: the sparse and phi suites read last, m, kappa
and alpha from it, so the kernels they call (`maps._widen`,
`maps._widest_pair`) rescan nothing.  Values from scans: the core suite
recomputes every invariant with `core._invariants`, the one-loop scan
behind `invariants`, from the row's elements alone (no suite yet
compares the record's last, m, kappa or alpha with that scan), splits
the blocks with `core._partition` on that scan's m, and re-validates
with `core._validate`, the check behind `validate_gapset`; phi scans
each widened image once with `core._invariants`, whose kappa, depth and
alpha every image check reads.  Both scan the bare elements: no row or
image is wrapped in a `Gapset`.

Set tests run on bit masks of the elements (bit v set for member v),
each built once per row: core's feeds the shifted-gap windows (one mask
test per shift) and the re-validation; phi's feeds its m-extension and
2m + 1 tests, and `_widen` shifts it into the image's, which both
next-m-set tests read, and `maps._classify` too, called only by the three
checks that ask whether the image is a gapset.  Phi checks injectivity
by a left inverse: `maps._narrow` shifts the image's mask back by the
image's own alpha, and the check passes when that gives the row's mask
(its failure detail names the gapset the image narrows back to).  The
depth-2 witness check sets a flag when a depth-2 row's image mask equals
the witness's.  Only the candidates of phi's small-m-set sweep are
normalized, through `validate_gapset`.  The bijection suite reads no
rows: `maps.verify_bijection` lists each (g, k) family and the
(g + 1, k + 1) family it should map onto with the kappa-pruned
`_iter_records`, so `verify` never walks genus max_genus + 1 in full, and
round-trips every record's mask through `_widen` and `_narrow`, as phi
does, with no `Gapset`.  A broken map fails checks in both suites.
No check reads another check's result.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cache
from itertools import combinations
from operator import le
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple

from .core import (
    Elements,
    Gapset,
    _invariants,
    _m_extension,
    _m_set,
    _partition,
    _validate,
    element_mask,
    invariants,
    validate_gapset,
)
from .enumeration import _check_genus, _iter_records, enumerate_gapsets
from .maps import CLASS_GAPSET, _classify, _narrow, _widen, _widest_pair, verify_bijection
from .tally import build_count_grid, stabilization_check

if TYPE_CHECKING:
    from .enumeration import KernelRecord


class Violation(NamedTuple):
    suite: str
    check: str
    elements: Elements
    detail: str


@dataclass(slots=True)
class SuiteReport:
    suite: str
    max_genus: int
    gapsets_covered: int = 0
    checks_run: int = 0
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def check(self, name: str, condition: bool, elements: Elements, detail: str = "") -> None:
        self.checks_run += 1
        if not condition:
            self.violations.append(Violation(self.suite, name, elements, detail))


def _genus_records(g: int) -> list[KernelRecord]:
    """The records of one full walk of genus g, in enumeration order."""
    return list(_iter_records(g))


def memoized_provider() -> Callable[[int], list[Gapset]]:
    """A memo of `list(enumerate_gapsets(g))` per genus g.  No suite reads
    it; it is kept only for the benchmark's call shape, and goes once the
    benchmark times `run_suites` instead (ROADMAP items 1 and 5a)."""
    return cache(lambda g: list(enumerate_gapsets(g)))


def _windows_empty(e: Elements, mask: int, m: int, c: int) -> bool:
    """No element lies strictly between s + e[j] and s + e[j+1] for any
    multiple s of m with s + e[j+1] <= c; `mask` is e's `element_mask`.

    Shift 0 is skipped: consecutive elements leave its windows empty.  At
    shift s, with J the largest index with s + e[J] <= c, the windows of
    j < J together cover (s + e[0], s + e[J]) less the shifted elements
    s + e[1..J-1], which is one mask test.  Needs len(e) >= 2.
    """
    s = m
    while s + e[1] <= c:
        top = e[bisect_right(e, c - s) - 1]
        if mask & ((1 << (s + top)) - (2 << (s + e[0]))) & ~(mask << s):
            return False
        s += m
    return True


def _core(report: SuiteReport, genus: int, rows: list[KernelRecord]) -> None:
    """Invariant bounds, element bounds, partition consistency, shifted-gap
    windows, and re-validation, for every gapset of the genus."""
    for e, *_ in rows:
        report.gapsets_covered += 1
        rec = _invariants(e)
        mask = element_mask(e)
        report.check(
            "frobenius-is-conductor-minus-1", rec.frobenius == rec.conductor - 1, e
        )
        report.check(
            "depth-is-ceil-conductor-over-multiplicity",
            rec.depth == -(-rec.conductor // rec.multiplicity),
            e,
        )
        if genus >= 1:
            # a detail is formatted only for a failing check
            ok = 2 <= rec.multiplicity <= genus + 1
            report.check("multiplicity-range", ok, e, "" if ok else f"m={rec.multiplicity}")
            ok = genus + 1 <= rec.conductor <= 2 * genus
            report.check("conductor-range", ok, e, "" if ok else f"c={rec.conductor}")
            ok = 1 <= rec.depth <= genus
            report.check("depth-range", ok, e, "" if ok else f"q={rec.depth}")
            report.check(
                "element-bounds",
                all(map(le, range(1, genus + 1), e))
                and all(map(le, e, range(1, 2 * genus, 2))),
                e,
            )
            m = rec.multiplicity
            blocks = _partition(e, m).blocks
            report.check("partition-block-count", len(blocks) == rec.depth, e)
            report.check(
                "partition-first-block", blocks[0] == tuple(range(1, m)), e
            )
            report.check("partition-union", sum(blocks, ()) == e, e)
            # each block is a sorted slice: its ends bound all its members
            report.check(
                "partition-block-ranges",
                all(
                    i * m + 1 <= block[0] and block[-1] <= (i + 1) * m - 1
                    for i, block in enumerate(blocks)
                    if i >= 1 and block
                ),
                e,
            )
            report.check(
                "shifted-gap-windows-empty",
                genus < 2 or _windows_empty(e, mask, m, rec.conductor),
                e,
            )
        if rec.alpha is not None:
            report.check(
                "alpha-is-last-widest",
                e[rec.alpha] - e[rec.alpha - 1] == rec.kappa
                and all(
                    e[i + 1] - e[i] < rec.kappa
                    for i in range(rec.alpha, genus - 1)
                ),
                e,
            )
        report.check("revalidation-idempotent", _validate(e, mask) is None, e)


def _sparse(report: SuiteReport, genus: int, rows: list[KernelRecord]) -> None:
    """Pure-sparse inequalities, the widest-pair block trichotomy, and the
    2g <= 3k consequences (depth cap, pair uniqueness, widest-element cap)."""
    for e, last, m, k, alpha in rows:
        report.gapsets_covered += 1
        c = last + 1 if last else 0
        q = -(-c // m)
        report.check("kappa-at-most-multiplicity", k <= m, e)
        report.check("kappa-at-most-genus", k <= genus, e)
        report.check("genus-plus-kappa-at-most-conductor", genus + k <= c, e)
        if alpha is not None:
            report.check(
                "top-element-within-multiplicity-of-widest",
                e[-1] <= e[alpha - 1] + m,
                e,
            )
            if q >= 2:
                try:
                    _widest_pair(e, m, alpha, q)
                    report.check("widest-pair-trichotomy", True, e)
                except RuntimeError as exc:
                    report.check("widest-pair-trichotomy", False, e, str(exc))
        if 2 * genus <= 3 * k:
            report.check("below-diagonal-depth-cap", q <= 3, e)
            if genus >= 2:
                pairs = sum(1 for i in range(genus - 1) if e[i + 1] - e[i] == k)
                ok = pairs == 1 or e == (1, 3, 5)
                report.check("widest-pair-unique", ok, e, "" if ok else f"{pairs} widest pairs")
                report.check(
                    "widest-start-below-twice-multiplicity",
                    e[alpha - 1] <= 2 * m - 1,
                    e,
                )


def _phi(report: SuiteReport, genus: int, rows: list[KernelRecord]) -> None:
    """Behaviour of the gap-widening map on every gapset of the genus.

    Covers the image shape (size, range, widened maximum gap), the depth-1/2/3
    classification with its stated exception, injectivity per (genus, kappa)
    family, the depth-2 non-surjectivity witness, and the m-extension
    property of gapsets.  No image is kept past its row: injectivity holds
    if `maps._narrow`, a left inverse of widening, takes every image back
    to its row, and the witness check sets a flag when a depth-2 row's
    image mask equals the witness's.
    """
    witness = tuple(range(1, genus + 1)) + (genus + 2,)
    wmask = element_mask(witness) if genus >= 1 else 0  # no image mask is 0
    hit = False
    for e, last, m, kappa, alpha in rows:
        report.gapsets_covered += 1
        c = last + 1 if last else 0
        q = -(-c // m)
        mask = element_mask(e)
        ie, imask = _widen(e, mask, alpha)
        irec = _invariants(ie)
        report.check("image-size", len(ie) == genus + 1, e)
        report.check("image-range", min(ie) >= 1 and max(ie) <= 2 * (genus + 1) - 1, e)
        report.check("image-kappa-raised", irec.kappa == kappa + 1, e)
        report.check("gapset-is-m-extension", _m_extension(e, mask, m), e)
        if q == 1:
            report.check(
                "depth1-image-gapset-of-depth-2",
                _classify(ie, imask, m + 1) == CLASS_GAPSET and irec.depth == 2,
                e,
            )
        elif q == 2:
            report.check(
                "depth2-image-is-next-m-set",
                _m_set(ie, imask, m + 1) and irec.depth == 2,
                e,
            )
            report.check(
                "depth2-image-in-next-family",
                _classify(ie, imask, m + 1) == CLASS_GAPSET
                and irec.depth == 2
                and irec.kappa == kappa + 1,
                e,
            )
            if imask == wmask:
                hit = True
        elif q == 3:
            exceptional = mask >> (2 * m + 1) & 1 and e[alpha - 1] >= 2 * m + 1
            if not exceptional:
                report.check(
                    "depth3-image-is-next-m-set",
                    _m_set(ie, imask, m + 1) and irec.depth == 3,
                    e,
                )
            if 2 * genus <= 3 * kappa:
                report.check(
                    "depth3-image-in-next-family",
                    _classify(ie, imask, m + 1) == CLASS_GAPSET
                    and irec.depth == 3
                    and irec.kappa == kappa + 1,
                    e,
                )
        back = _narrow(ie, imask, irec.alpha)
        ok = back == mask
        if not ok:  # name the gapset the image narrows back to
            back = tuple(v for v in range(back.bit_length()) if back >> v & 1)
        report.check(
            "injective-within-family", ok, e, "" if ok else f"image narrows back to {back}"
        )
    if genus >= 1:
        report.check("depth2-witness-has-no-depth2-preimage", not hit, witness)


def _small_m_sets(report: SuiteReport) -> None:
    """Any m-set inside [1, 2m-1] is a gapset of multiplicity m and depth
    <= 2; sweep all of them for small m."""
    for m in range(1, min(report.max_genus, 10) + 1):
        base = tuple(range(1, m))
        pool = range(m + 1, 2 * m)
        for size in range(len(pool) + 1):
            for extra in combinations(pool, size):
                cand = base + extra
                checked = validate_gapset(cand)
                ok = isinstance(checked, Gapset)
                if ok:
                    rec = invariants(checked)
                    ok = (not cand or rec.multiplicity == m) and rec.depth <= 2
                report.check("small-m-set-is-gapset", ok, cand, "" if ok else f"m={m}")


def _bijection(report: SuiteReport, genus: int, rows: list[KernelRecord]) -> None:
    """Round-trip the widening bijection on every (g, k) family of the genus
    with 2g <= 3k <= 3g.  `verify_bijection` lists both families with the
    kappa-pruned walk, so `rows` is not read."""
    for kappa in range(-(-2 * genus // 3), genus + 1):
        result = verify_bijection(genus, kappa)
        # a detail is formatted only for a failing check
        ok = result.counts_equal
        n, n_next = result.source_size, result.target_size
        report.gapsets_covered += n + n_next
        report.check(
            "family-counts-equal", ok, (), "" if ok else f"(g={genus}, k={kappa}): {n} vs {n_next}"
        )
        for name, trips in (
            ("forward-round-trip", result.forward_round_trip),
            ("backward-round-trip", result.backward_round_trip),
            ("image-membership", result.image_membership),
        ):
            ok = all(trips)
            report.check(name, ok, (), "" if ok else f"(g={genus}, k={kappa})")


def _stabilization(report: SuiteReport) -> None:
    """The count grid to max_genus stabilizes below the diagonal."""
    stab = stabilization_check(build_count_grid(report.max_genus))
    report.check(
        "grid-stabilization",
        stab.ok,
        (),
        "; ".join(f"{cell}: {a} != {b}" for cell, a, b in stab.violations),
    )


# each suite's per-genus body, and the checks some run once after the last genus
_BODY = {"core": _core, "sparse": _sparse, "phi": _phi, "bijection": _bijection}
_FINAL = {"phi": _small_m_sets, "bijection": _stabilization}


def _run(
    names: list[str], max_genus: int, records: Callable[[int], list[KernelRecord]]
) -> list[SuiteReport]:
    """Run the named suites, one report each, over one pass of genus
    0..max_genus: each genus is read once with `records` (not at all if
    only the bijection suite runs), fed to every suite's body, and released
    before the next genus is read."""
    for name in names:
        if name not in _BODY:
            raise ValueError(f"unknown suite {name!r}")
    reports = [SuiteReport(name, max_genus) for name in names]
    walk = any(name != "bijection" for name in names)
    for genus in range(max_genus + 1):
        rows = records(genus) if walk else []
        for report in reports:
            _BODY[report.suite](report, genus, rows)
        del rows  # else genus g stays alive while genus g + 1 is walked
    for report in reports:
        if report.suite in _FINAL:
            _FINAL[report.suite](report)
    return reports


def core_suite(max_genus: int, by_genus: object) -> SuiteReport:
    """The core suite alone (see `_core`); `by_genus` is not read, and is
    kept only for the benchmark's call shape until ROADMAP item 5a."""
    return run_suites(["core"], max_genus)[0]


def sparse_suite(max_genus: int, by_genus: object) -> SuiteReport:
    """The sparse suite alone (see `_sparse`); `by_genus` is not read, and
    is kept only for the benchmark's call shape until ROADMAP item 5a."""
    return run_suites(["sparse"], max_genus)[0]


def phi_suite(max_genus: int, by_genus: object) -> SuiteReport:
    """The phi suite alone (see `_phi` and `_small_m_sets`); `by_genus` is
    not read, and is kept only for the benchmark's call shape until ROADMAP
    item 5a."""
    return run_suites(["phi"], max_genus)[0]


def bijection_suite(max_genus: int, by_genus: object) -> SuiteReport:
    """The bijection suite alone (see `_bijection`); `by_genus` is not read,
    and is kept only for the benchmark's call shape until ROADMAP item 5a."""
    return run_suites(["bijection"], max_genus)[0]


def run_suites(suites: Iterable[str], max_genus: int) -> list[SuiteReport]:
    """Run the named suites over one plain walk per genus, holding one genus
    at a time.  The largest genus they read (max_genus + 1 for the
    bijection suite) is checked against the ceiling before any walk."""
    suites = list(suites)
    _check_genus(max_genus + ("bijection" in suites))
    return _run(suites, max_genus, _genus_records)
