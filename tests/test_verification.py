"""The verify suites keep every check: its name, how often it runs, and
which planted non-gapsets it flags."""

import weakref
from collections import Counter

import pytest

from gapsets import Gapset, core, enumeration, maps, verification
from gapsets.core import kappa_and_alpha, multiplicity
from gapsets.verification import SuiteReport, core_suite, phi_suite, run_suites, sparse_suite

from expected_counts import GAPSET_COUNTS
from tracing import traced_peak

# (suite, elements) -> (checks run, violations as (check, detail)), when
# `_run` feeds the suite only the record (elements, last, multiplicity,
# kappa, alpha) that a scan of the elements gives, at their genus.
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


@pytest.mark.parametrize(
    "suite, elements", PLANTED, ids=lambda x: getattr(x, "__name__", str(x))
)
def test_planted_non_gapset_is_reported(suite, elements):
    planted = Gapset(elements)
    record = (elements, elements[-1], multiplicity(planted), *kappa_and_alpha(planted))
    name = suite.__name__.removesuffix("_suite")
    genus = len(elements)
    [report] = verification._run([name], genus, lambda g: [record] if g == genus else [])
    checks, expected = PLANTED[suite, elements]
    assert report.checks_run == checks
    assert [(v.check, v.detail) for v in report.violations] == expected
    assert all(v.elements == elements for v in report.violations)


def test_every_check_runs_as_often_as_before(monkeypatch):
    counts = Counter()
    check = SuiteReport.check

    def counting(self, name, condition, elements, detail=""):
        counts[self.suite, name] += 1
        check(self, name, condition, elements, detail)

    monkeypatch.setattr(SuiteReport, "check", counting)
    reports = run_suites(["core", "sparse", "phi", "bijection"], 12)
    assert all(r.ok for r in reports)
    assert {
        suite: {name: n for (s, name), n in counts.items() if s == suite}
        for suite in CHECKS_AT_GENUS_12
    } == CHECKS_AT_GENUS_12


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
    def forbidden(self):
        raise AssertionError(f"Gapset{self.elements} was built")

    monkeypatch.setattr(Gapset, "__post_init__", forbidden)
    assert run_suites(["sparse"], 12)[0].ok
    with pytest.raises(AssertionError, match="was built"):
        Gapset((1,))


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
    # maps rescans nothing, and they hand the kernels sorted tuples, so the
    # only normalization left is phi's small-m-set sweep through
    # validate_gapset: 2**(m-1) candidates for each m = 1..10
    def forbidden(name):
        def fail(*_args, **_kwargs):
            raise AssertionError(f"maps.{name} was called")

        return fail

    for name in ("kappa_and_alpha", "multiplicity", "invariants"):
        monkeypatch.setattr(maps, name, forbidden(name))
    normalized = Counter()
    as_candidate = core.as_candidate

    def counting(values):
        normalized["calls"] += 1
        return as_candidate(values)

    monkeypatch.setattr(core, "as_candidate", counting)
    reports = run_suites(["sparse", "phi"], 12)
    assert all(r.ok for r in reports)
    assert normalized["calls"] == sum(2 ** (m - 1) for m in range(1, 11)) == 1023


def test_core_and_phi_build_each_mask_once(monkeypatch):
    # core builds one mask per row, which its shifted-gap windows and its
    # re-validation share; phi builds one per row, which `_widen` shifts
    # into the image's, and one per depth-2 witness (genus 1..12); the
    # rest are the small-m-set sweep's 1023 candidates, the only ones
    # normalized, through validate_gapset
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
    assert calls == {"mask": 2 * rows + 12 + 1023, "normalize": 1023}


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
