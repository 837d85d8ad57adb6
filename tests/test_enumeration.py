import importlib.util
import os
import subprocess
import sys
from collections import Counter
from hashlib import sha256
from pathlib import Path

import pytest

from gapsets import (
    Gapset,
    build_count_grid,
    enumerate_gapsets,
    invariants,
    kappa_and_alpha,
    validate_gapset,
)
from gapsets import enumeration, tally
from gapsets.enumeration import (
    CorruptCacheError,
    MissingCacheError,
    ResourceLimitError,
    _count_cells,
    _iter_records,
    cache_load,
    cache_path,
    cache_store,
    filter_pure_sparse,
)
from gapsets.core import element_mask
from gapsets.maps import _widen

from expected_counts import (
    COUNTS_BY_KAPPA,
    DIAGONAL_TERMS,
    GAPSET_COUNTS,
    LARGE_GAPSET_COUNTS,
    RECORDS_TO_GENUS_16_SHA256,
)
from oracles import BRUTE_FORCE_MAX_GENUS, brute_force_gapsets


def test_counts_match_published_sequence():
    for g in range(10):
        assert sum(1 for _ in enumerate_gapsets(g)) == GAPSET_COUNTS[g]


def test_genus_zero_is_the_empty_gapset():
    assert list(enumerate_gapsets(0)) == [Gapset(())]


def test_emission_is_lexicographic_and_validated():
    for g in range(8):
        out = list(enumerate_gapsets(g))
        elems = [x.elements for x in out]
        assert elems == sorted(elems)
        assert len(set(elems)) == len(elems)
        for x in out:
            assert isinstance(validate_gapset(x.elements), Gapset)
            assert all(1 <= v <= 2 * g - 1 for v in x.elements)


def test_brute_force_genus_three():
    found = [g.elements for g in brute_force_gapsets(3)]
    assert found == [(1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 3, 5)]


def test_brute_force_small_counts():
    assert [g.elements for g in brute_force_gapsets(1)] == [(1,)]
    assert sum(1 for _ in brute_force_gapsets(7)) == 39


def test_oracle_equivalence():
    for g in range(9):
        tree = [x.elements for x in enumerate_gapsets(g)]
        brute = [x.elements for x in brute_force_gapsets(g)]
        assert tree == brute


def test_brute_force_guard():
    with pytest.raises(ResourceLimitError):
        list(brute_force_gapsets(13))


def test_genus_ceiling():
    with pytest.raises(ResourceLimitError):
        list(enumerate_gapsets(31))


def test_kernels_reject_a_negative_genus():
    # the kernels and the brute-force oracle check the sign of the genus;
    # the kernels leave the ceiling to their callers
    with pytest.raises(ValueError, match="genus must be >= 0"):
        list(_iter_records(-1))
    with pytest.raises(ValueError, match="genus must be >= 0"):
        list(_iter_records(-1, kappa=0))
    with pytest.raises(ValueError, match="genus must be >= 0"):
        _count_cells(-1)
    with pytest.raises(ValueError, match="genus must be >= 0"):
        list(brute_force_gapsets(-1))


def test_workers_do_not_change_the_stream():
    # `workers` is not read: a fresh interpreter gets the single walk's
    # stream and never imports a process pool
    probe = (
        "import sys\n"
        "from gapsets.enumeration import enumerate_gapsets\n"
        "parallel = list(enumerate_gapsets(11, workers=3))\n"
        "assert parallel == list(enumerate_gapsets(11, workers=1))\n"
        f"assert len(parallel) == {GAPSET_COUNTS[11]}\n"
        "assert 'multiprocessing' not in sys.modules\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def kappa_counter(stream):
    return Counter(kappa_and_alpha(x)[0] for x in stream)


@pytest.fixture(scope="module")
def brute():
    """Brute-force gapsets of every genus the oracle accepts, listed once
    (genus 12 alone tests about 700k subsets)."""
    return [list(brute_force_gapsets(g)) for g in range(BRUTE_FORCE_MAX_GENUS + 1)]


def kappa_rows(max_genus):
    """The count walk's rows as {kappa: count} without the zero cells."""
    return [{k: n for k, n in enumerate(row) if n} for row in _count_cells(max_genus)]


def record_row(genus):
    """The genus's count row, tallied by kappa from the record walk."""
    row = [0] * (genus + 1)
    for rec in _iter_records(genus):
        row[rec[3]] += 1
    return row


class TestCountWalk:
    def test_rows_match_the_tuple_search(self):
        rows = kappa_rows(16)
        assert len(rows) == 17
        for g, row in enumerate(rows):
            assert row == kappa_counter(enumerate_gapsets(g)), g

    def test_rows_match_brute_force(self, brute):
        for g, row in enumerate(kappa_rows(BRUTE_FORCE_MAX_GENUS)):
            assert row == kappa_counter(brute[g]), g

    def test_frozen_grid_matches_the_benchmark(self):
        spec = importlib.util.spec_from_file_location(
            "perfbench_expected", Path(__file__).parents[1] / "perfbench" / "expected.py"
        )
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
        assert bench.CELLS == COUNTS_BY_KAPPA

    def test_rows_match_frozen_grid(self):
        grid = build_count_grid(22)
        assert grid.cells == {(g, k): n for g in range(23) for k, n in COUNTS_BY_KAPPA[g].items()}
        assert kappa_rows(1) == [{0: 1}, {1: 1}]

    def test_every_genus_matches_the_rows_of_genus_18(self):
        # each G puts the walk's four in-place levels at their own depth;
        # below G = 4 the root is already past the first of them, and the
        # walk returns frozen rows, which this checks too
        rows = _count_cells(18)
        for g in range(19):
            assert _count_cells(g) == rows[: g + 1], g

    def test_last_rows_match_the_record_walk(self):
        # the last four rows are the ones the walk fills in place
        cells = _count_cells(20)
        assert cells[17:] == [record_row(g) for g in range(17, 21)]

    @pytest.mark.slow
    def test_last_rows_match_the_record_walk_at_genus_24(self):
        cells = _count_cells(24)
        assert cells[21:] == [record_row(g) for g in range(21, 25)]

    def test_row_sums_to_genus_24(self):
        row_sums = build_count_grid(24).row_sums
        assert {g: row_sums[g] for g in range(20, 25)} == LARGE_GAPSET_COUNTS

    def test_bounds_checked_before_the_walk(self, monkeypatch):
        def entered(*_args):
            raise AssertionError("the walk started")

        monkeypatch.setattr(tally, "_count_cells", entered)
        with pytest.raises(ResourceLimitError):
            build_count_grid(31)
        with pytest.raises(ValueError):
            build_count_grid(-1)


def diagonal_term(w):
    return sum(1 for _ in _iter_records(3 * w, kappa=2 * w))


class TestDiagonalWalk:
    def test_terms_match_the_count_walk(self):
        cells = _count_cells(21)
        assert [diagonal_term(w) for w in range(8)] == [cells[3 * w][2 * w] for w in range(8)]

    def test_terms_match_the_record_walk(self):
        for w in range(7):
            pure = sum(1 for _, _, _, k, _ in _iter_records(3 * w) if k == 2 * w)
            assert diagonal_term(w) == pure, w

    @pytest.mark.slow
    def test_terms_match_the_walk_to_genus_30(self):
        cells = _count_cells(30)
        terms = [diagonal_term(w) for w in range(11)]
        assert terms == [cells[3 * w][2 * w] for w in range(11)] == DIAGONAL_TERMS
        # the same walk's last rows against OEIS A007323
        assert [sum(cells[g]) for g in (28, 29, 30)] == [2091030, 3437839, 5646773]


class TestPureWalk:
    """`_iter_records(g, kappa=K)` yields the records of `_iter_records(g)`
    with maximum gap K, in the same order, with either kind of label."""

    def test_records_match_the_filtered_walk(self):
        for g in range(19):
            pieces = [" " + str(v) for v in range(2 * g + 2)]
            tuples = list(_iter_records(g))
            text = list(_iter_records(g, pieces=pieces))
            for k in [*range(g + 2), 10**6]:
                pure = list(_iter_records(g, kappa=k))
                assert pure == [r for r in tuples if r[3] == k], (g, k)
                pure = list(_iter_records(g, pieces=pieces, kappa=k))
                assert pure == [r for r in text if r[3] == k], (g, k)

    def test_region_families_match_the_count_walk(self):
        # `verify --max-genus 16` reads the families with 2g <= 3k of
        # genus <= 17, one past the filtered walk's check above
        cells = _count_cells(17)
        for g in range(18):
            for k in range(-(-2 * g // 3), g + 1):
                assert sum(1 for _ in _iter_records(g, kappa=k)) == cells[g][k], (g, k)

    @pytest.mark.slow
    @pytest.mark.parametrize("k", [11, 12, 13])
    def test_genus_22_matches_the_filtered_walk(self, k):
        assert list(_iter_records(22, kappa=k)) == [r for r in _iter_records(22) if r[3] == k]

    @pytest.mark.slow
    def test_genus_24_matches_the_filtered_walk(self):
        full = list(_iter_records(24))
        for k in range(12, 17):
            assert list(_iter_records(24, kappa=k)) == [r for r in full if r[3] == k], k

    def test_sumset_reach_test_cuts_the_walk(self):
        # one table lookup per yielded leaf and per visited node with
        # children: the walk without the sumset reach test looked up 85,469
        # labels for these records
        pieces = CountingPieces((v,) for v in range(2 * 22 + 2))
        records = list(_iter_records(22, pieces=pieces, kappa=11))
        assert len(records) == COUNTS_BY_KAPPA[22][11] == 2745
        assert pieces.lookups <= 20_000

    def test_sumset_shortcut_cuts_the_last_inner_level(self):
        # the shortcut drops leaves the split test would drop too, so only
        # the work shows it: without the per-pop `sums` mask the walk makes
        # 43,229 `int.bit_length` calls, without the per-child T + D test
        # 36,763, and without both 43,665
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            if event == "c_call" and getattr(arg, "__name__", None) == "bit_length":
                calls += 1

        previous = sys.getprofile()
        sys.setprofile(count)
        try:
            records = list(_iter_records(22, kappa=11))
        finally:
            sys.setprofile(previous)
        assert len(records) == COUNTS_BY_KAPPA[22][11]
        assert calls == 36_471


class CountingPieces(list):
    """A label table for `_iter_records` that counts its lookups."""

    lookups = 0

    def __getitem__(self, i):
        self.lookups += 1
        return list.__getitem__(self, i)


def region_shape(max_genus):
    """Per genus, the number of gapsets in the region families (2g <= 3k),
    and those whose record breaks kappa <= m or depth ceil((last+1)/m) <= 3."""
    read, broken = [], []
    for g in range(max_genus + 1):
        read.append(0)
        for k in range(-(-2 * g // 3), g + 1):
            for elems, last, m, kappa, _ in _iter_records(g, kappa=k):
                read[g] += 1
                if not (kappa == k <= m and -(-(last + 1) // m) <= 3):
                    broken.append(elems)
    return read, broken


class TestRegionShape:
    """Every gapset in the theorem's region has kappa <= m and depth <= 3.
    The region at genus g holds the families kappa = g - d for 3d <= g, so
    by the theorem it holds t(0) + ... + t(g // 3) gapsets."""

    def test_to_genus_17(self):
        read, broken = region_shape(17)
        assert broken == []
        assert read == [sum(DIAGONAL_TERMS[: g // 3 + 1]) for g in range(18)]

    @pytest.mark.slow
    def test_to_genus_30(self):
        read, broken = region_shape(30)
        assert broken == []
        assert read == [sum(DIAGONAL_TERMS[: g // 3 + 1]) for g in range(31)]
        assert read[30] == 9078


def border_defects(max_genus):
    """(b, g, delta) for delta(g, k) = n(g+1, k+1) - n(g, k) on the bands
    2g = 3k + b, b = 1..5, just past the theorem's region, for every k >= 1
    with g + 1 <= max_genus, read from `_count_cells(max_genus)`."""
    cells = _count_cells(max_genus)
    for g in range(max_genus):
        for b in range(1, 6):
            k, r = divmod(2 * g - b, 3)
            if r == 0 and k >= 1:
                yield b, g, cells[g + 1][k + 1] - cells[g][k]


def expected_border_defect(b, g):
    if b == 1:
        return 2 ** ((g - 2) // 3)
    if b == 2:
        return 0
    if b == 3:
        n = g // 3 - 1
        return n * 2 ** (n - 1) if g >= 6 else 2
    if b == 4:
        return 2 ** ((g - 8) // 3) if g >= 8 else 2
    n = (g - 4) // 3
    return 2 ** (n - 2) * (n * (n - 1) // 2 + 5) if g >= 10 else {4: 4, 7: 5}[g]


def border_widening(max_genus):
    """(b, g, out, missing, injective) on the bands 2g = 3k + b, b = 1, 2,
    for every k >= 1 with g + 1 <= max_genus: how many widened sources of
    the family (g, k) land outside the family (g + 1, k + 1), how many of
    those targets have no preimage, and whether widening is injective on
    the family.  Both families come from the kappa-pruned walk."""
    for g in range(max_genus):
        for b in (1, 2):
            k, r = divmod(2 * g - b, 3)
            if r or k < 1:
                continue
            sources = list(_iter_records(g, kappa=k))
            images = {_widen(e, element_mask(e), a)[0] for e, _, _, _, a in sources}
            targets = {e for e, *_ in _iter_records(g + 1, kappa=k + 1)}
            yield b, g, len(images - targets), len(targets - images), len(images) == len(sources)


def refined_counts(g, k, shift=0):
    """Counts of the (g, k) family by (m - shift, depth), with depth =
    ceil((last + 1) / m), and 0 for the empty gapset."""
    return Counter(
        (m - shift, -(-(last + 1) // m) if last else 0)
        for _, last, m, _, _ in _iter_records(g, kappa=k)
    )


class TestRefinedCountForm:
    """Computed data, not a theorem: in the theorem's region the count form
    holds multiplicity by multiplicity and depth by depth, with m raised by
    1.  Only the two pairs below genus 2 fail, by the genus-0/1
    conventions: () has depth 0 and {1} depth 1; {1} has depth 1 and
    {1, 3} depth 2."""

    @pytest.mark.parametrize(
        "max_genus, pairs", [(23, 106), pytest.param(29, 163, marks=pytest.mark.slow)]
    )
    def test_families_match_by_multiplicity_and_depth(self, max_genus, pairs):
        region = [(g, k) for g in range(max_genus + 1) for k in range(-(-2 * g // 3), g + 1)]
        assert sum(1 for g, _ in region if g >= 2) == pairs
        failures = [
            (g, k) for g, k in region if refined_counts(g, k) != refined_counts(g + 1, k + 1, 1)
        ]
        assert failures == [(0, 0), (1, 1)]


class TestBorderBands:
    """Computed data, not theorems: the count form n(g, k) = n(g+1, k+1)
    fails on the first band past 2g <= 3k by a power of two, holds on the
    second, and fails on the third to fifth by regular amounts.  On the
    first two bands widening stays injective: on b = 1 every image lands in
    the target family and the defect's targets have no preimage; on b = 2
    the counts agree, yet 2^((g-4)/3) images leave the family and as many
    targets have no preimage."""

    @pytest.mark.parametrize(
        "max_genus, cells",
        [
            (23, {1: 7, 2: 7, 3: 7, 4: 6, 5: 7}),
            pytest.param(30, {1: 10, 2: 9, 3: 9, 4: 9, 5: 9}, marks=pytest.mark.slow),
        ],
    )
    def test_defects_follow_the_band_formulas(self, max_genus, cells):
        defects = list(border_defects(max_genus))
        assert Counter(b for b, _, _ in defects) == cells
        assert [(b, g, d) for b, g, d in defects if d != expected_border_defect(b, g)] == []

    def test_widening_on_the_first_two_bands(self):
        rows = list(border_widening(22))
        assert [(b, g) for b, g, *_ in rows if b == 1] == [(1, g) for g in range(2, 21, 3)]
        assert [(b, g) for b, g, *_ in rows if b == 2] == [(2, g) for g in range(4, 20, 3)]
        expected = [
            (1, g, 0, 2 ** ((g - 2) // 3), True) if b == 1
            else (2, g, 2 ** ((g - 4) // 3), 2 ** ((g - 4) // 3), True)
            for b, g, *_ in rows
        ]
        assert rows == expected


class TestRecordWalk:
    def test_records_match_invariants(self):
        # the sparse, phi and bijection suites read m, kappa and alpha from
        # these records; `verify --max-genus 16` reads every genus up to 17
        for g in range(18):
            for elems, last, m, k, a in _iter_records(g):
                rec = invariants(Gapset(elems))
                c = last + 1 if elems else 0
                assert (m, c, -(-c // m), k, a) == (
                    rec.multiplicity, rec.conductor, rec.depth, rec.kappa, rec.alpha
                ), elems

    def test_elements_match_brute_force(self, brute):
        # the kappa-pruned mode too, against the oracle split by kappa_and_alpha
        for g, oracle in enumerate(brute):
            walk = [rec[0] for rec in _iter_records(g)]
            assert walk == [x.elements for x in oracle], g
            by_kappa = [kappa_and_alpha(x)[0] for x in oracle]
            for k in range(g + 2):
                pure = [rec[0] for rec in _iter_records(g, kappa=k)]
                expected = [x.elements for x, xk in zip(oracle, by_kappa) if xk == k]
                assert pure == expected, (g, k)

    def test_small_genus_conventions(self):
        assert list(_iter_records(0)) == [((), 0, 1, 0, None)]
        assert list(_iter_records(1)) == [((1,), 1, 2, 1, None)]

    def test_records_are_frozen(self):
        # every record, in order, of every walk to genus 16 with either kind
        # of label
        digest = sha256()
        for g in range(17):
            text = ["," + str(v) for v in range(2 * g + 2)]
            for pieces in (None, text):
                for k in (None, *range(g + 2)):
                    for rec in _iter_records(g, pieces, k):
                        digest.update(repr(rec).encode())
        assert digest.hexdigest() == RECORDS_TO_GENUS_16_SHA256

    def test_pushes_no_leaf_parent_and_no_childless_node(self):
        # one table lookup per leaf and per node with children; the walk
        # that pushed every node made one per node, 33,282 at genus 18
        pieces = CountingPieces((v,) for v in range(2 * 18 + 2))
        assert sum(1 for _ in _iter_records(18, pieces=pieces)) == GAPSET_COUNTS[18]
        assert pieces.lookups == 26_203

    @pytest.mark.parametrize("sep", [",", ", ", " "])
    def test_text_labels_match_the_tuple_walk(self, sep):
        for g in range(15):
            pieces = [sep + str(v) for v in range(2 * g + 2)]
            text = list(enumeration._iter_records(g, pieces=pieces))
            tuples = list(enumeration._iter_records(g))
            assert len(text) == len(tuples) == GAPSET_COUNTS[g]
            for (label, *rest), (elems, last, *expected) in zip(text, tuples):
                assert label == "".join(sep + str(v) for v in elems)
                assert label[len(sep):] == sep.join(map(str, elems))
                assert last == (elems[-1] if elems else 0)
                assert rest == [last, *expected], elems

    def test_bounds_checked_before_the_walk(self, monkeypatch):
        def entered(*_args):
            raise AssertionError("the walk started")

        monkeypatch.setattr(enumeration, "_iter_records", entered)
        with pytest.raises(ResourceLimitError):
            list(enumerate_gapsets(31))
        with pytest.raises(ValueError):
            list(enumerate_gapsets(-1))


class TestFilters:
    def test_pure_sparse_count(self):
        assert sum(1 for _ in filter_pure_sparse(enumerate_gapsets(6), 4)) == 5

    def test_pure_sparse_membership(self):
        found = [g.elements for g in filter_pure_sparse(enumerate_gapsets(3), 2)]
        assert found == [(1, 2, 4), (1, 3, 5)]

    @pytest.mark.parametrize("g", [3, 5, 8])
    def test_unique_maximally_sparse_gapset(self, g):
        found = [x.elements for x in filter_pure_sparse(enumerate_gapsets(g), g)]
        assert found == [tuple(range(1, g)) + (2 * g - 1,)]

    def test_filter_rejects_the_non_pure_call(self):
        # only the benchmark's call shape, pure=True, is kept
        from gapsets.enumeration import filter_gapsets

        with pytest.raises(ValueError, match="pure"):
            filter_gapsets(enumerate_gapsets(5), kappa=2, pure=False)

    def test_negative_kappa_raises(self):
        with pytest.raises(ValueError, match="kappa must be >= 0"):
            filter_pure_sparse(enumerate_gapsets(5), -1)


class TestCache:
    def test_round_trip(self, tmp_path):
        stored = list(enumerate_gapsets(5))
        cache_store(5, iter(stored), tmp_path)
        assert cache_load(5, tmp_path) == stored
        assert len(stored) == 12

    def test_missing(self, tmp_path):
        with pytest.raises(MissingCacheError):
            cache_load(4, tmp_path)

    def test_corrupt_payload(self, tmp_path):
        cache_store(4, enumerate_gapsets(4), tmp_path)
        path = cache_path(tmp_path, 4)
        path.write_bytes(path.read_bytes().replace(b"1,2,3,4", b"1,2,3,5", 1))
        with pytest.raises(CorruptCacheError):
            cache_load(4, tmp_path)

    def test_corrupt_count(self, tmp_path):
        cache_store(4, enumerate_gapsets(4), tmp_path)
        path = cache_path(tmp_path, 4)
        path.write_bytes(path.read_bytes().replace(b"count=7", b"count=8"))
        with pytest.raises(CorruptCacheError):
            cache_load(4, tmp_path)

    def test_layout(self, tmp_path):
        cache_store(2, enumerate_gapsets(2), tmp_path)
        lines = cache_path(tmp_path, 2).read_text().splitlines()
        assert lines[0] == "genus=2"
        assert lines[1] == "count=2"
        assert lines[2:4] == ["1,2", "1,3"]
        assert lines[4].startswith("crc32=") and len(lines[4]) == len("crc32=") + 8

    def test_genus_zero_round_trip(self, tmp_path):
        cache_store(0, enumerate_gapsets(0), tmp_path)
        assert cache_load(0, tmp_path) == [Gapset(())]

    @pytest.mark.parametrize("fault", ["stream", "crc32", "replace"])
    def test_a_failed_store_keeps_the_old_file(self, tmp_path, monkeypatch, fault):
        # a store that raises (the stream, the checksum or the move onto the
        # target) leaves the old file loadable and no temporary file behind
        stored = list(enumerate_gapsets(6))
        cache_store(6, stored, tmp_path)

        def fail(*_args):
            raise OSError(fault)

        def broken_stream():
            yield from stored[:3]
            fail()

        with monkeypatch.context() as patch:
            if fault == "crc32":
                patch.setattr(enumeration.zlib, "crc32", fail)
            elif fault == "replace":
                patch.setattr(enumeration.os, "replace", fail)
            with pytest.raises(OSError, match=fault):
                cache_store(6, broken_stream() if fault == "stream" else stored, tmp_path)
        assert cache_load(6, tmp_path) == stored
        assert [p.name for p in tmp_path.iterdir()] == ["gapsets-g6.txt"]
