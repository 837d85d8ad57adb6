"""Executable property suites over enumerated gapsets.

Each suite sweeps every gapset up to a genus bound and records violations
as structured witnesses instead of raising, so a full run reports all
failures in enumeration (lexicographic) order.  The suites encode the
structural facts the rest of the package relies on: invariant bounds and
consistency, pure-sparse inequalities, behaviour of the gap-widening map,
and the widening bijection with its count stabilization.

Accounting: a passing check costs one inline comparison.  Each per-row
body keeps one row tally per branch, a branch being the rows that run the
same checks (every row, genus >= 1, alpha present, depth 2, ...), and once
per genus hands each tally to `SuiteReport.tally` with the branch's
module-level tuple of check names, which adds rows * len(names) to
checks_run; gapsets_covered grows once per genus too.  A false condition
calls `SuiteReport.fail`, the only place a violation is built, and its
detail is formatted on that path alone.  The one-off checks (phi's depth-2
witness and small-m-set sweep, and the bijection suite's) go through
`SuiteReport.check`: one tally of one, and `fail` if the check failed.

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
alpha every image check reads.  Both scan the bare elements, and no
record object is built per row or image: `_invariants` returns a plain
tuple and `_partition` the tuple of blocks, which the bodies unpack into
locals, so no `Gapset`, `InvariantRecord` or `CanonicalPartition` is
built.

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
the witness's.  Phi's small-m-set sweep builds its candidates sorted, so
it checks each with `_validate` and `_invariants` too, and no suite
normalizes or builds a `Gapset`.  The bijection suite reads no
rows: `maps.verify_bijection` lists each (g, k) family and the
(g + 1, k + 1) family it should map onto with the kappa-pruned
`_iter_records`, so `verify` never walks genus max_genus + 1 in full, and
round-trips every record's mask through `_widen` and `_narrow`, as phi
does, with no `Gapset`.  A broken map fails checks in both suites.
No check reads another check's result.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cache
from itertools import combinations
from operator import le
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple

from .core import (
    Elements,
    _invariants,
    _m_extension,
    _m_set,
    _partition,
    _validate,
    element_mask,
)
from .enumeration import _check_genus, _iter_records, enumerate_gapsets
from .maps import CLASS_GAPSET, _classify, _narrow, _widen, _widest_pair, verify_bijection
from .tally import build_count_grid, stabilization_check

if TYPE_CHECKING:
    from .core import Gapset
    from .enumeration import KernelRecord


class Violation(NamedTuple):
    suite: str
    check: str
    elements: Elements
    detail: str


class SuiteReport:
    """One suite's tally: the gapsets it covered, the checks it ran and the
    violations it found.  Reports compare equal when every field does, and
    print as their constructor call."""

    __slots__ = ("suite", "max_genus", "gapsets_covered", "checks_run", "violations")

    def __init__(
        self,
        suite: str,
        max_genus: int,
        gapsets_covered: int = 0,
        checks_run: int = 0,
        violations: list[Violation] | None = None,
    ) -> None:
        self.suite = suite
        self.max_genus = max_genus
        self.gapsets_covered = gapsets_covered
        self.checks_run = checks_run
        self.violations = [] if violations is None else violations

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"SuiteReport({fields})"

    @property
    def ok(self) -> bool:
        return not self.violations

    def tally(self, names: tuple[str, ...], n: int) -> None:
        """Count n passes of every check in `names`, failed or not."""
        self.checks_run += n * len(names)

    def fail(self, name: str, elements: Elements, detail: str = "") -> None:
        """Record one failure of the check `name`."""
        self.violations.append(Violation(self.suite, name, elements, detail))

    def check(self, name: str, condition: bool, elements: Elements, detail: str = "") -> None:
        """Count one run of a one-off check, and record it if it failed."""
        self.tally((name,), 1)
        if not condition:
            self.fail(name, elements, detail)


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


# the checks of each branch of a body: every row of the branch runs all of
# them, and the body tallies the branch's rows
_CORE = (
    "frobenius-is-conductor-minus-1", "depth-is-ceil-conductor-over-multiplicity",
    "revalidation-idempotent",
)
_CORE_GENUS = (
    "multiplicity-range", "conductor-range", "depth-range", "element-bounds",
    "partition-block-count", "partition-first-block", "partition-union",
    "partition-block-ranges", "shifted-gap-windows-empty",
)
_CORE_ALPHA = ("alpha-is-last-widest",)
_SPARSE = (
    "kappa-at-most-multiplicity", "kappa-at-most-genus", "genus-plus-kappa-at-most-conductor",
)
_SPARSE_ALPHA = ("top-element-within-multiplicity-of-widest",)
_SPARSE_PAIR = ("widest-pair-trichotomy",)
_SPARSE_REGION = ("below-diagonal-depth-cap",)
_SPARSE_REGION_GENUS = ("widest-pair-unique", "widest-start-below-twice-multiplicity")
_PHI = (
    "image-size", "image-range", "image-kappa-raised", "gapset-is-m-extension",
    "injective-within-family",
)
_PHI_DEPTH1 = ("depth1-image-gapset-of-depth-2",)
_PHI_DEPTH2 = ("depth2-image-is-next-m-set", "depth2-image-in-next-family")
_PHI_DEPTH3 = ("depth3-image-is-next-m-set",)
_PHI_DEPTH3_REGION = ("depth3-image-in-next-family",)


def _core(report: SuiteReport, genus: int, rows: list[KernelRecord]) -> None:
    """Invariant bounds, element bounds, partition consistency, shifted-gap
    windows, and re-validation, for every gapset of the genus."""
    fail = report.fail
    with_alpha = 0
    for e, _, _, _, _ in rows:
        _, m, c, frobenius, q, kappa, alpha = _invariants(e)
        mask = element_mask(e)
        if frobenius != c - 1:
            fail("frobenius-is-conductor-minus-1", e)
        if q != -(-c // m):
            fail("depth-is-ceil-conductor-over-multiplicity", e)
        if genus >= 1:
            if not 2 <= m <= genus + 1:
                fail("multiplicity-range", e, f"m={m}")
            if not genus + 1 <= c <= 2 * genus:
                fail("conductor-range", e, f"c={c}")
            if not 1 <= q <= genus:
                fail("depth-range", e, f"q={q}")
            if not (
                all(map(le, range(1, genus + 1), e)) and all(map(le, e, range(1, 2 * genus, 2)))
            ):
                fail("element-bounds", e)
            blocks = _partition(e, m)
            if len(blocks) != q:
                fail("partition-block-count", e)
            if blocks[0] != tuple(range(1, m)):
                fail("partition-first-block", e)
            if sum(blocks, ()) != e:
                fail("partition-union", e)
            # each block is a sorted slice: its ends bound all its members
            if not all(
                i * m + 1 <= block[0] and block[-1] <= (i + 1) * m - 1
                for i, block in enumerate(blocks)
                if i >= 1 and block
            ):
                fail("partition-block-ranges", e)
            if genus >= 2 and not _windows_empty(e, mask, m, c):
                fail("shifted-gap-windows-empty", e)
        if alpha is not None:
            with_alpha += 1
            if not (
                e[alpha] - e[alpha - 1] == kappa
                and all(e[i + 1] - e[i] < kappa for i in range(alpha, genus - 1))
            ):
                fail("alpha-is-last-widest", e)
        if _validate(e, mask) is not None:
            fail("revalidation-idempotent", e)
    report.gapsets_covered += len(rows)
    report.tally(_CORE, len(rows))
    if genus >= 1:
        report.tally(_CORE_GENUS, len(rows))
    report.tally(_CORE_ALPHA, with_alpha)


def _sparse(report: SuiteReport, genus: int, rows: list[KernelRecord]) -> None:
    """Pure-sparse inequalities, the widest-pair block trichotomy, and the
    2g <= 3k consequences (depth cap, pair uniqueness, widest-element cap)."""
    fail = report.fail
    with_alpha = paired = in_region = 0
    for e, last, m, k, alpha in rows:
        c = last + 1 if last else 0
        q = -(-c // m)
        if k > m:
            fail("kappa-at-most-multiplicity", e)
        if k > genus:
            fail("kappa-at-most-genus", e)
        if genus + k > c:
            fail("genus-plus-kappa-at-most-conductor", e)
        if alpha is not None:
            with_alpha += 1
            if e[-1] > e[alpha - 1] + m:
                fail("top-element-within-multiplicity-of-widest", e)
            if q >= 2:
                paired += 1
                try:
                    _widest_pair(e, m, alpha, q)
                except RuntimeError as exc:
                    fail("widest-pair-trichotomy", e, str(exc))
        if 2 * genus <= 3 * k:
            in_region += 1
            if q > 3:
                fail("below-diagonal-depth-cap", e)
            if genus >= 2:
                pairs = sum(1 for i in range(genus - 1) if e[i + 1] - e[i] == k)
                if pairs != 1 and e != (1, 3, 5):
                    fail("widest-pair-unique", e, f"{pairs} widest pairs")
                # a record with no alpha here is wrong, and fails the check
                if alpha is None or e[alpha - 1] > 2 * m - 1:
                    fail("widest-start-below-twice-multiplicity", e)
    report.gapsets_covered += len(rows)
    report.tally(_SPARSE, len(rows))
    report.tally(_SPARSE_ALPHA, with_alpha)
    report.tally(_SPARSE_PAIR, paired)
    report.tally(_SPARSE_REGION, in_region)
    if genus >= 2:
        report.tally(_SPARSE_REGION_GENUS, in_region)


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
    fail = report.fail
    witness = tuple(range(1, genus + 1)) + (genus + 2,)
    wmask = element_mask(witness) if genus >= 1 else 0  # no image mask is 0
    hit = False
    depth1 = depth2 = depth3 = depth3_region = 0
    for e, last, m, kappa, alpha in rows:
        c = last + 1 if last else 0
        q = -(-c // m)
        mask = element_mask(e)
        ie, imask = _widen(e, mask, alpha)
        _, _, _, _, iq, ikappa, ialpha = _invariants(ie)
        if len(ie) != genus + 1:
            fail("image-size", e)
        if not (min(ie) >= 1 and max(ie) <= 2 * (genus + 1) - 1):
            fail("image-range", e)
        if ikappa != kappa + 1:
            fail("image-kappa-raised", e)
        if not _m_extension(e, mask, m):
            fail("gapset-is-m-extension", e)
        if q == 1:
            depth1 += 1
            if not (_classify(ie, imask, m + 1) == CLASS_GAPSET and iq == 2):
                fail("depth1-image-gapset-of-depth-2", e)
        elif q == 2:
            depth2 += 1
            if not (_m_set(ie, imask, m + 1) and iq == 2):
                fail("depth2-image-is-next-m-set", e)
            if not (
                _classify(ie, imask, m + 1) == CLASS_GAPSET and iq == 2 and ikappa == kappa + 1
            ):
                fail("depth2-image-in-next-family", e)
            if imask == wmask:
                hit = True
        elif q == 3:
            # alpha is 1-based; with none the record is wrong, and the row is not exempt
            exceptional = mask >> (2 * m + 1) & 1 and alpha and e[alpha - 1] >= 2 * m + 1
            if not exceptional:
                depth3 += 1
                if not (_m_set(ie, imask, m + 1) and iq == 3):
                    fail("depth3-image-is-next-m-set", e)
            if 2 * genus <= 3 * kappa:
                depth3_region += 1
                if not (
                    _classify(ie, imask, m + 1) == CLASS_GAPSET
                    and iq == 3
                    and ikappa == kappa + 1
                ):
                    fail("depth3-image-in-next-family", e)
        back = _narrow(ie, imask, ialpha)
        if back != mask:  # name the gapset the image narrows back to
            back = tuple(v for v in range(back.bit_length()) if back >> v & 1)
            fail("injective-within-family", e, f"image narrows back to {back}")
    report.gapsets_covered += len(rows)
    report.tally(_PHI, len(rows))
    report.tally(_PHI_DEPTH1, depth1)
    report.tally(_PHI_DEPTH2, depth2)
    report.tally(_PHI_DEPTH3, depth3)
    report.tally(_PHI_DEPTH3_REGION, depth3_region)
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
                # sorted and below twice its length, so `_validate` reads the mask
                ok = _validate(cand, element_mask(cand)) is None
                if ok:
                    _, cm, _, _, q, _, _ = _invariants(cand)
                    ok = (not cand or cm == m) and q <= 2
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
