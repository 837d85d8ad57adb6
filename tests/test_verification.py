"""The verify suites keep every check: its name, how often it runs, and
which planted non-gapsets it flags."""

import weakref
from collections import Counter

import pytest

from gapsets import Gapset, cli, core, enumeration, maps, verification
from gapsets.verification import SuiteReport, core_suite, phi_suite, run_suites, sparse_suite

from expected_counts import GAPSET_COUNTS
import oracles
from tracing import traced_peak

# (suite, elements) -> (checks run, violations as (check, detail)), when
# `_run` feeds the suite only the record (elements, last, multiplicity,
# kappa, alpha) that the oracles' scans of the elements give, at their genus.
# Gapset() checks only that the elements increase, so these are not
# gapsets.
PLANTED = {
    (core_suite, (1, 3, 4)): (13, [
        ("partition-block-ranges", ""),
        ("shifted-gap-windows-empty", ""),
        ("revalidation-idempotent", ""),
    ]),
    (core_suite, (1, 4, 5)): (13, [
        ("element-bounds", ""),
        ("partition-block-ranges", ""),
        ("shifted-gap-windows-empty", ""),
        ("revalidation-idempotent", ""),
    ]),
    (core_suite, (2, 3)): (13, [
        ("multiplicity-range", "m=1"),
        ("depth-range", "q=4"),
        ("element-bounds", ""),
        ("partition-block-ranges", ""),
        ("revalidation-idempotent", ""),
    ]),
    (core_suite, (1, 3, 6)): (13, [
        ("conductor-range", "c=7"),
        ("depth-range", "q=4"),
        ("element-bounds", ""),
        ("partition-block-ranges", ""),
        ("shifted-gap-windows-empty", ""),
        ("revalidation-idempotent", ""),
    ]),
    (sparse_suite, (1, 2, 5, 8)): (8, [("widest-pair-unique", "2 widest pairs")]),
    (phi_suite, (1, 3, 4)): (17, [
        ("gapset-is-m-extension", ""),
        ("depth3-image-is-next-m-set", ""),
        ("depth3-image-in-next-family", ""),
    ]),
    (phi_suite, (2, 3)): (10, [("gapset-is-m-extension", "")]),
    (phi_suite, (1, 2, 4, 8)): (26, [
        ("image-range", ""),
        ("gapset-is-m-extension", ""),
        ("depth3-image-in-next-family", ""),
    ]),
    (phi_suite, (1, 3, 6)): (15, [
        ("image-range", ""),
        ("gapset-is-m-extension", ""),
    ]),
}

# How often each check runs over every gapset of genus <= 12.
CHECKS_AT_GENUS_12 = {
    "core": {
        "alpha-is-last-widest": 1411,
        "conductor-range": 1412,
        "depth-is-ceil-conductor-over-multiplicity": 1413,
        "depth-range": 1412,
        "element-bounds": 1412,
        "frobenius-is-conductor-minus-1": 1413,
        "multiplicity-range": 1412,
        "partition-block-count": 1412,
        "partition-block-ranges": 1412,
        "partition-first-block": 1412,
        "partition-union": 1412,
        "revalidation-idempotent": 1413,
        "shifted-gap-windows-empty": 1412,
    },
    "sparse": {
        "below-diagonal-depth-cap": 146,
        "genus-plus-kappa-at-most-conductor": 1413,
        "kappa-at-most-genus": 1413,
        "kappa-at-most-multiplicity": 1413,
        "top-element-within-multiplicity-of-widest": 1411,
        "widest-pair-trichotomy": 1400,
        "widest-pair-unique": 144,
        "widest-start-below-twice-multiplicity": 144,
    },
    "phi": {
        "depth1-image-gapset-of-depth-2": 12,
        "depth2-image-in-next-family": 596,
        "depth2-image-is-next-m-set": 596,
        "depth2-witness-has-no-depth2-preimage": 12,
        "depth3-image-in-next-family": 86,
        "depth3-image-is-next-m-set": 520,
        "gapset-is-m-extension": 1413,
        "image-kappa-raised": 1413,
        "image-range": 1413,
        "image-size": 1413,
        "injective-within-family": 1413,
        "small-m-set-is-gapset": 1023,
    },
    "bijection": {
        "backward-round-trip": 35,
        "family-counts-equal": 35,
        "forward-round-trip": 35,
        "grid-stabilization": 1,
        "image-membership": 35,
    },
}


def scanned(elements):
    """The walk's record (elements, last, m, kappa, alpha) from the oracles'
    scans."""
    _, m, _, _, _, kappa, alpha = oracles.invariants(elements)
    return elements, elements[-1] if elements else 0, m, kappa, alpha


@pytest.mark.parametrize(
    "suite, elements", PLANTED, ids=lambda x: getattr(x, "__name__", str(x))
)
def test_planted_non_gapset_is_reported(suite, elements):
    record = scanned(elements)
    name = suite.__name__.removesuffix("_suite")
    genus = len(elements)
    [report] = verification._run([name], genus, lambda g: [record] if g == genus else [])
    checks, expected = PLANTED[suite, elements]
    assert report.checks_run == checks
    assert [(v.check, v.detail) for v in report.violations] == expected
    assert all(v.elements == elements for v in report.violations)


def test_every_check_runs_as_often_as_before(monkeypatch):
    # every count reaches the report through `tally`, the one-off checks'
    # `check` included
    counts = Counter()
    tally = SuiteReport.tally

    def counting(self, names, n):
        for name in names:
            counts[self.suite, name] += n
        tally(self, names, n)

    monkeypatch.setattr(SuiteReport, "tally", counting)
    reports = run_suites(["core", "sparse", "phi", "bijection"], 12)
    assert all(r.ok for r in reports)
    assert {
        suite: {name: n for (s, name), n in counts.items() if s == suite}
        for suite in CHECKS_AT_GENUS_12
    } == CHECKS_AT_GENUS_12
    assert sum(counts.values()) == sum(r.checks_run for r in reports)


def test_every_genus_is_walked_once(monkeypatch):
    # the core, sparse and phi suites read one full record walk per genus
    # 0..max_genus, and none of genus max_genus + 1; the bijection suite
    # walks only its region families, with the kappa-pruned walk that
    # maps.verify_bijection makes, and no suite builds a Gapset stream of
    # its own
    full = Counter()
    pruned = Counter()

    def counting(walk):
        def count(genus, *args, **kwargs):
            if kwargs.get("kappa") is None:
                full[genus] += 1
            else:
                pruned[genus, kwargs["kappa"]] += 1
            return walk(genus, *args, **kwargs)

        return count

    def forbidden(*_args, **_kwargs):
        raise AssertionError("enumerate_gapsets was called")

    monkeypatch.setattr(verification, "_iter_records", counting(verification._iter_records))
    monkeypatch.setattr(maps, "_iter_records", counting(maps._iter_records))
    monkeypatch.setattr(enumeration, "enumerate_gapsets", forbidden)
    assert not hasattr(maps, "enumerate_gapsets")
    reports = run_suites(["core", "sparse", "phi", "bijection"], 12)
    assert all(r.ok for r in reports)
    assert full == {g: 1 for g in range(13)}
    region = Counter()
    for g in range(13):
        for k in range(-(-2 * g // 3), g + 1):
            region[g, k] += 1
            region[g + 1, k + 1] += 1
    assert pruned == region


def test_each_genus_is_dropped_before_the_next_walk(monkeypatch):
    # run_suites holds one genus of rows at a time: when the walk of genus
    # g + 1 starts, no suite body, `_run` or memo still holds genus g's rows; and
    # the bijection suite alone starts no full walk
    class Rows(list):
        pass

    walk = verification._genus_records
    held = []
    alive = []

    def tracked(genus):
        alive.extend(g for g, ref in enumerate(held) if ref() is not None)
        rows = Rows(walk(genus))
        held.append(weakref.ref(rows))
        return rows

    monkeypatch.setattr(verification, "_genus_records", tracked)
    reports = run_suites(["core", "sparse", "phi", "bijection"], 12)
    assert all(r.ok for r in reports)
    assert len(held) == 13
    assert alive == []
    held.clear()
    assert run_suites(["bijection"], 12)[0].ok
    assert held == []


def test_bodies_read_the_walks_own_records(monkeypatch):
    # the rows `_run` hands each suite body are the very tuples the walk
    # yielded, not copies of them
    walk = verification._iter_records
    yielded = []

    def capturing(genus, *args, **kwargs):
        for record in walk(genus, *args, **kwargs):
            yielded.append(record)
            yield record

    seen = {}

    def recording(name, body):
        def run(report, genus, rows):
            seen.setdefault(name, []).extend(rows)
            body(report, genus, rows)

        return run

    monkeypatch.setattr(verification, "_iter_records", capturing)
    for name in ("core", "sparse", "phi"):
        monkeypatch.setitem(
            verification._BODY, name, recording(name, verification._BODY[name])
        )
    reports = run_suites(["core", "sparse", "phi"], 10)
    assert all(r.ok for r in reports)
    assert len(yielded) == sum(GAPSET_COUNTS[:11])
    for name in ("core", "sparse", "phi"):
        assert len(seen[name]) == len(yielded), name
        assert all(row is record for row, record in zip(seen[name], yielded)), name


def test_sparse_builds_no_gapset(monkeypatch):
    def forbidden(self, elements):
        raise AssertionError(f"Gapset{elements} was built")

    monkeypatch.setattr(Gapset, "__init__", forbidden)
    assert run_suites(["sparse"], 12)[0].ok
    with pytest.raises(AssertionError, match="was built"):
        Gapset((1,))


def test_bijection_builds_no_gapset(monkeypatch):
    def forbidden(self, elements):
        raise AssertionError(f"Gapset{elements} was built")

    monkeypatch.setattr(Gapset, "__init__", forbidden)
    assert run_suites(["bijection"], 12)[0].ok


def test_a_broken_map_is_reported(monkeypatch, capsys):
    # widening that shifts the tail by +1 instead of +2 fails phi's checks
    # and the bijection's round trips, as violations: nothing raises, and
    # verify prints its total line and exits 1
    def shifted_by_one(elems, mask, alpha):
        return (1, *[v + 1 for v in elems]), 2 | mask << 1

    for module in (maps, verification):
        monkeypatch.setattr(module, "_widen", shifted_by_one)
    phi, bijection = run_suites(["phi", "bijection"], 6)
    assert phi.violations and bijection.violations
    assert cli.main(["verify", "--max-genus", "6"]) == 1
    assert capsys.readouterr().out.splitlines()[-1].startswith("total: suites=4 ")


def test_core_and_phi_build_no_gapset_for_a_row_or_image(monkeypatch):
    # core scans each row, and phi each widened image and each small-m-set
    # candidate, from the bare elements: no Gapset is built at all
    built = []
    init = Gapset.__init__

    def recording(self, elements):
        built.append(elements)
        init(self, elements)

    monkeypatch.setattr(Gapset, "__init__", recording)
    reports = run_suites(["core", "phi"], 12)
    assert all(r.ok for r in reports)
    assert built == []


def test_suite_report_keywords_defaults_equality_and_repr():
    violation = verification.Violation("core", "planted", (1, 4), "detail")
    full = SuiteReport(
        suite="core", max_genus=3, gapsets_covered=5, checks_run=7, violations=[violation]
    )
    assert (full.suite, full.max_genus, full.gapsets_covered, full.checks_run) == ("core", 3, 5, 7)
    assert full.violations == [violation] and not full.ok
    a, b = SuiteReport("phi", 2), SuiteReport(suite="phi", max_genus=2)
    assert (a.gapsets_covered, a.checks_run, a.violations) == (0, 0, [])
    assert a.ok and a.violations is not b.violations  # a fresh list each
    assert a == b and not a != b
    a.check("planted", True, ())
    assert a != b and a.checks_run == 1
    b.checks_run = 1
    assert a == b
    b.check("planted", False, (1, 4), "detail")
    assert a != b
    assert SuiteReport("phi", 2) != SuiteReport("core", 2) != SuiteReport("core", 3)
    assert SuiteReport("core", 3) != ("core", 3, 0, 0, [])
    assert repr(SuiteReport("core", 3)) == (
        "SuiteReport(suite='core', max_genus=3, gapsets_covered=0, checks_run=0, violations=[])"
    )


def test_passing_checks_format_no_detail(monkeypatch):
    # a passing check builds no violation and formats no detail: the
    # failure helper, where a tallied check's detail is built, is never
    # called on a clean run, and every one-off check gets an empty detail
    failures, details = [], []
    check = SuiteReport.check

    def recording_fail(self, name, elements, detail=""):
        failures.append((self.suite, name, elements, detail))

    def recording_check(self, name, condition, elements, detail=""):
        details.append((self.suite, name, detail))
        check(self, name, condition, elements, detail)

    monkeypatch.setattr(SuiteReport, "fail", recording_fail)
    monkeypatch.setattr(SuiteReport, "check", recording_check)
    reports = run_suites(["core", "sparse", "phi", "bijection"], 12)
    assert all(r.ok for r in reports)
    assert failures == []
    assert {suite for suite, _, _ in details} == {"phi", "bijection"}
    assert [d for d in details if d[2] != ""] == []


def test_bijection_details_name_the_failing_family(monkeypatch):
    # a detail is formatted only for a failing check, with the text it
    # always had: the family, and for unequal counts both sizes
    verify_bijection = verification.verify_bijection

    def failing(genus, kappa):
        if (genus, kappa) != (2, 2):
            return verify_bijection(genus, kappa)
        return maps.BijectionReport(2, 2, 2, 3, (True, False), (True,) * 3, (False, True, True))

    monkeypatch.setattr(verification, "verify_bijection", failing)
    [report] = run_suites(["bijection"], 2)
    assert report.checks_run == 4 * 3 + 1
    assert [(v.check, v.elements, v.detail) for v in report.violations] == [
        ("family-counts-equal", (), "(g=2, k=2): 2 vs 3"),
        ("forward-round-trip", (), "(g=2, k=2)"),
        ("image-membership", (), "(g=2, k=2)"),
    ]


def test_small_m_set_detail_names_m(monkeypatch):
    # a rejected small-m-set candidate is reported with its m
    validate = verification._validate

    def rejecting(cand, mask):
        return core.GapsetRejection(4, 2, 2) if cand == (1, 2, 4) else validate(cand, mask)

    monkeypatch.setattr(verification, "_validate", rejecting)
    [report] = run_suites(["phi"], 3)
    assert [(v.check, v.elements, v.detail) for v in report.violations] == [
        ("small-m-set-is-gapset", (1, 2, 4), "m=3")
    ]


def test_memory_holds_no_gapset_rows_or_image_tuples():
    # on CPython 3.11 this run peaked at 2.94 MB while it held rows of
    # (Gapset, m, kappa, alpha) and phi's image tuples, at 2.16 MB with the
    # walk's own records and a dict of phi's image masks, and at 1.93 MB
    # with no per-genus collection in phi; the bound is left where the
    # first change set it
    reports, peak = traced_peak(run_suites, ["core", "sparse", "phi"], 15)
    assert all(r.ok for r in reports)
    assert peak < 2_710_000


def test_phi_holds_no_more_than_the_rows_of_a_genus():
    # phi keeps nothing of a genus but the rows `_run` hands it, as sparse
    # does, so the two peak alike; with a dict of every image mask of the
    # genus phi peaked at 1.23 times sparse on CPython 3.11
    phi, phi_peak = traced_peak(run_suites, ["phi"], 16)
    sparse, sparse_peak = traced_peak(run_suites, ["sparse"], 16)
    assert phi[0].ok and sparse[0].ok
    assert phi_peak <= 1.05 * sparse_peak


def test_sparse_and_phi_read_the_record_and_normalize_once(monkeypatch):
    # the two suites take m, kappa and alpha from the walk's records, so
    # maps rescans nothing, and they hand the kernels sorted tuples, phi's
    # small-m-set sweep included, so nothing is normalized
    def forbidden(name):
        def fail(*_args, **_kwargs):
            raise AssertionError(f"maps.{name} was called")

        return fail

    for name in ("_invariants", "invariants"):
        monkeypatch.setattr(maps, name, forbidden(name))
    normalized = Counter()
    as_candidate = core.as_candidate

    def counting(values):
        normalized["calls"] += 1
        return as_candidate(values)

    monkeypatch.setattr(core, "as_candidate", counting)
    reports = run_suites(["sparse", "phi"], 12)
    assert all(r.ok for r in reports)
    assert normalized["calls"] == 0


def test_core_and_phi_build_each_mask_once(monkeypatch):
    # core builds one mask per row, which its shifted-gap windows and its
    # re-validation share; phi builds one per row, which `_widen` shifts
    # into the image's, and one per depth-2 witness (genus 1..12); the
    # rest are the small-m-set sweep's 1023 candidates, which are built
    # sorted, so nothing is normalized
    calls = Counter()

    def counting(name, fn):
        def count(*args):
            calls[name] += 1
            return fn(*args)

        return count

    mask = counting("mask", core.element_mask)
    for module in (verification, maps, core):
        monkeypatch.setattr(module, "element_mask", mask)
    monkeypatch.setattr(core, "as_candidate", counting("normalize", core.as_candidate))
    reports = run_suites(["core", "phi"], 12)
    assert all(r.ok for r in reports)
    rows = sum(GAPSET_COUNTS[:13])
    assert rows == 1413
    assert calls == Counter(mask=2 * rows + 12 + 1023, normalize=0)


def test_injectivity_names_the_colliding_gapset():
    # planted in one kappa = 1 family, (1, 2) and (1, 3) both widen to
    # (1, 2, 4), which narrows back to (1, 2) only: the second is flagged
    # with the gapset its image narrows back to, formatted only for this
    # failure, and (1, 2, 4), the depth-2 witness, gets a depth-2 preimage
    records = [((1, 2), 2, 3, 1, 1), ((1, 3), 3, 2, 1, 2)]
    [report] = verification._run(["phi"], 2, lambda g: records if g == 2 else [])
    assert report.checks_run == 18
    assert [(v.check, v.elements, v.detail) for v in report.violations] == [
        ("injective-within-family", (1, 3), "image narrows back to (1, 2)"),
        ("depth2-witness-has-no-depth2-preimage", (1, 2, 4), ""),
    ]


@pytest.mark.parametrize(
    "suite, record, failed",
    [
        # region row: alpha is read for the widest pair's start
        ("sparse", ((1, 2, 5), 5, 3, 3, None), "widest-start-below-twice-multiplicity"),
        # depth-3 row with 2m + 1 present: alpha is read for the exception
        ("phi", ((1, 3, 5), 5, 2, 2, None), "depth3-image-is-next-m-set"),
    ],
)
def test_a_record_that_lost_alpha_is_reported(suite, record, failed):
    # genus >= 2 always has alpha, so a record without it is wrong: the row
    # fails the check that reads alpha, as a violation, and nothing raises
    genus = len(record[0])
    [report] = verification._run([suite], genus, lambda g: [record] if g == genus else [])
    assert failed in [v.check for v in report.violations]
    assert all(v.elements == record[0] for v in report.violations)


def scan_with(**fields):
    """`_invariants` with the named fields of its result replaced."""
    index = {"c": 2, "frobenius": 3, "q": 4, "kappa": 5}

    def scan(elements):
        result = list(core._invariants(elements))
        for name, value in fields.items():
            result[index[name]] = value
        return tuple(result)

    return scan


class EqualToAll(int):
    """An int that every equality test accepts, and ordering reads as is."""

    __hash__ = int.__hash__

    def __eq__(self, other):
        return True

    def __ne__(self, other):
        return False


def returning(value):
    return lambda *_args: value


def rejecting(*_args):
    return core.GapsetRejection(0, 0, 0)


EMPTY, PAIR, SPLIT = scanned(()), scanned((1, 2)), scanned((1, 2, 4))
NOT_M_SET = returning(maps.CLASS_NOT_M_SET)


# (check, suite body, genus, record, kernels patched in verification): one
# input per check that the bodies tally, on which that check alone fails.
# Planted records: gapsets fed at a genus other than their length
# (multiplicity-range, conductor-range, image-size), a non-gapset
# (image-range), and sparse records with a wrong last, m, kappa or alpha.
# depth-range follows from depth-is-ceil and the two range checks before
# it, so only a depth that every equality accepts fails it alone.
FAILS_ALONE = [
    ("frobenius-is-conductor-minus-1", "core", 0, EMPTY, {"_invariants": scan_with(frobenius=0)}),
    (
        "depth-is-ceil-conductor-over-multiplicity", "core", 0, EMPTY,
        {"_invariants": scan_with(q=1)},
    ),
    ("revalidation-idempotent", "core", 2, PAIR, {"_validate": rejecting}),
    ("multiplicity-range", "core", 2, scanned((1, 2, 3)), {}),
    ("conductor-range", "core", 2, scanned((1, 2, 4)), {}),
    ("depth-range", "core", 1, scanned((1,)), {"_invariants": scan_with(q=EqualToAll(2))}),
    ("element-bounds", "core", 6, scanned((1, 2, 3, 5, 10, 11)), {"_validate": returning(None)}),
    ("partition-block-count", "core", 3, SPLIT, {"_partition": returning(((1, 2), (4,), ()))}),
    ("partition-first-block", "core", 3, SPLIT, {"_partition": returning(((1, 2, 4), ()))}),
    ("partition-union", "core", 3, SPLIT, {"_partition": returning(((1, 2), (4, 5)))}),
    (
        "partition-block-ranges", "core", 5, scanned((1, 2, 4, 5, 7)),
        {"_partition": returning(((1, 2), (4,), (5, 7)))},
    ),
    ("shifted-gap-windows-empty", "core", 2, PAIR, {"_windows_empty": returning(False)}),
    ("alpha-is-last-widest", "core", 2, PAIR, {"_invariants": scan_with(kappa=2)}),
    ("kappa-at-most-multiplicity", "sparse", 3, ((1, 3, 5), 5, 2, 3, 2), {}),
    ("kappa-at-most-genus", "sparse", 0, ((), 1, 1, 1, None), {}),
    ("genus-plus-kappa-at-most-conductor", "sparse", 1, ((1,), 0, 2, 1, None), {}),
    ("top-element-within-multiplicity-of-widest", "sparse", 3, ((1, 2, 5), 5, 3, 3, 1), {}),
    ("widest-pair-trichotomy", "sparse", 2, ((1, 2), 6, 3, 1, 1), {}),
    ("below-diagonal-depth-cap", "sparse", 0, ((), 3, 1, 0, None), {}),
    ("widest-pair-unique", "sparse", 3, ((1, 2, 5), 5, 3, 2, 2), {}),
    ("widest-start-below-twice-multiplicity", "sparse", 6, ((1, 2, 3, 4, 8, 9), 9, 4, 4, 5), {}),
    ("image-size", "phi", 2, scanned((1,)), {}),
    ("image-range", "phi", 5, scanned((1, 2, 4, 7, 10)), {}),
    ("image-kappa-raised", "phi", 1, scanned((1,)), {"_invariants": scan_with(kappa=3)}),
    ("gapset-is-m-extension", "phi", 1, scanned((1,)), {"_m_extension": returning(False)}),
    ("injective-within-family", "phi", 1, scanned((1,)), {"_narrow": returning(0)}),
    ("depth1-image-gapset-of-depth-2", "phi", 1, scanned((1,)), {"_classify": NOT_M_SET}),
    ("depth2-image-is-next-m-set", "phi", 2, scanned((1, 3)), {"_m_set": returning(False)}),
    ("depth2-image-in-next-family", "phi", 2, scanned((1, 3)), {"_classify": NOT_M_SET}),
    ("depth3-image-is-next-m-set", "phi", 3, scanned((1, 3, 5)), {"_m_set": returning(False)}),
    ("depth3-image-in-next-family", "phi", 3, scanned((1, 3, 5)), {"_classify": NOT_M_SET}),
]


@pytest.mark.parametrize(
    "name, suite, genus, record, kernels", FAILS_ALONE, ids=[case[0] for case in FAILS_ALONE]
)
def test_each_tallied_check_fails_alone(monkeypatch, name, suite, genus, record, kernels):
    # a check that is tallied but no longer evaluated would pass here
    for kernel, fn in kernels.items():
        monkeypatch.setattr(verification, kernel, fn)
    report = SuiteReport(suite, genus)
    verification._BODY[suite](report, genus, [record])
    assert [v.check for v in report.violations] == [name]
    assert report.violations[0].elements == record[0]


def test_every_tallied_check_has_an_input_that_fails_it_alone():
    branches = [
        value for key, value in vars(verification).items()
        if key.startswith(("_CORE", "_SPARSE", "_PHI")) and isinstance(value, tuple)
    ]
    assert len(branches) == 13
    assert sorted(name for name, *_ in FAILS_ALONE) == sorted(
        name for branch in branches for name in branch
    )
