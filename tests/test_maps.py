from itertools import combinations

import pytest
from hypothesis import given

from gapsets import (
    CanonicalPartition,
    Gapset,
    canonical_partition,
    enumerate_gapsets,
    gapset,
    invariants,
    narrow_max_gap,
    ordinary_gapset,
    shift_blocks,
    verify_bijection,
    widen_max_gap,
)
from gapsets import enumeration, maps
from gapsets.maps import (
    CLASS_GAPSET,
    CLASS_M_SET_NOT_GAPSET,
    CLASS_NOT_M_SET,
    PAIR_IN_LAST,
    PAIR_IN_PENULTIMATE,
    PAIR_SPLIT,
    PreconditionError,
    UnsupportedDepthError,
    _classify,
    _narrow,
    _widen,
    _widest_pair,
    classify_image,
    classify_widest_pair,
)
from gapsets.core import (
    EmptyPartitionError,
    _invariants,
    _partition,
    element_mask,
    is_m_set,
    validate_gapset,
)
from gapsets.enumeration import ResourceLimitError

from expected_counts import COUNTS_BY_KAPPA
import oracles
from oracles import kappa_and_alpha
from strategies import gapsets
from tracing import traced_peak

# worked depth-2 and depth-3 images (input -> image)
DEPTH2_CASES = [
    ((1, 3), (1, 2, 5)),
    ((1, 2, 5), (1, 2, 3, 7)),
    ((1, 2, 4), (1, 2, 3, 6)),
    ((1, 2, 3, 7), (1, 2, 3, 4, 9)),
    ((1, 2, 3, 6), (1, 2, 3, 4, 8)),
    ((1, 2, 3, 5), (1, 2, 3, 4, 7)),
    ((1, 2, 4, 5), (1, 2, 3, 6, 7)),
]

DEPTH3_CASES = [
    ((1, 3, 5), (1, 2, 4, 7)),
    ((1, 2, 4, 7), (1, 2, 3, 5, 9)),
    ((1, 2, 3, 5, 9), (1, 2, 3, 4, 6, 11)),
    ((1, 2, 3, 4, 6, 11), (1, 2, 3, 4, 5, 7, 13)),
    ((1, 2, 3, 5, 6, 10), (1, 2, 3, 4, 6, 7, 12)),
    ((1, 2, 3, 5, 7, 11), (1, 2, 3, 4, 6, 8, 13)),
    ((1, 2, 3, 6, 7, 11), (1, 2, 3, 4, 7, 8, 13)),
]


class TestWiden:
    @pytest.mark.parametrize("source,image", DEPTH2_CASES + DEPTH3_CASES)
    def test_worked_images(self, source, image):
        result = widen_max_gap(gapset(source))
        assert result.elements == image
        assert result.classification == CLASS_GAPSET

    def test_conventions(self):
        assert widen_max_gap(gapset([])).elements == (1,)
        assert widen_max_gap(gapset([1])).elements == (1, 3)

    def test_image_not_an_m_set(self):
        result = widen_max_gap(gapset([1, 2, 3, 4, 6, 7, 9, 11, 14]))
        assert result.elements == (1, 2, 3, 4, 5, 7, 8, 10, 12, 16)
        assert result.claimed_m == 6
        assert result.classification == CLASS_NOT_M_SET

    def test_image_m_set_but_not_gapset(self):
        source = gapset(list(range(1, 10)) + [12, 13, 14, 17, 18, 23, 28])
        result = widen_max_gap(source)
        assert result.elements == tuple(range(1, 11)) + (13, 14, 15, 18, 19, 24, 30)
        assert result.claimed_m == 11
        assert result.classification == CLASS_M_SET_NOT_GAPSET

    def test_gapset_image_beyond_the_guaranteed_regime(self):
        g = gapset([1, 2, 4, 5, 7])
        assert 2 * g.genus > 3 * kappa_and_alpha(g)[0]
        result = widen_max_gap(g)
        assert result.elements == (1, 2, 3, 5, 6, 9)
        assert result.classification == CLASS_GAPSET

    @given(gapsets())
    def test_image_shape(self, g):
        image = widen_max_gap(g)
        assert len(image.elements) == g.genus + 1
        assert all(1 <= v <= 2 * g.genus + 1 for v in image.elements)
        assert kappa_and_alpha(Gapset(image.elements))[0] == kappa_and_alpha(g)[0] + 1


class TestClassifyImage:
    @pytest.mark.parametrize(
        "elements, claimed_m, expected",
        [
            ((1, 2, 5), 3, CLASS_GAPSET),
            ((), 1, CLASS_GAPSET),
            ((1, 2, 7), 3, CLASS_M_SET_NOT_GAPSET),
            ((1, 2, 6, 7), 3, CLASS_NOT_M_SET),
            ((1, 4), 3, CLASS_NOT_M_SET),
        ],
    )
    def test_three_way(self, elements, claimed_m, expected):
        assert classify_image(elements, claimed_m) == expected

    def test_kernel_matches_validation_and_the_m_set_test(self):
        # every subset of [1, 14] and claimed m 1..8; the verdicts of the
        # public validate_gapset and is_m_set are the reference
        for size in range(15):
            for elems in combinations(range(1, 15), size):
                mask = element_mask(elems)
                is_gapset = isinstance(validate_gapset(elems), Gapset)
                for m in range(1, 9):
                    if is_gapset:
                        expected = CLASS_GAPSET
                    elif is_m_set(elems, m):
                        expected = CLASS_M_SET_NOT_GAPSET
                    else:
                        expected = CLASS_NOT_M_SET
                    got = _classify(elems, mask, m)
                    assert got == expected == classify_image(elems, m), (elems, m)

    def test_unnormalized_and_huge_input(self):
        for raw in ([7, 2, 4, 1, 2], [5, 1, 6, 6], [2, 1, 10**6 + 1], [1, 2, 10**6 + 2]):
            elems = tuple(sorted(set(raw)))
            got = _classify(elems, element_mask(elems), 3)
            assert got == classify_image(raw, 3), raw
        assert classify_image([2, 1, 10**6 + 1], 3) == CLASS_M_SET_NOT_GAPSET

    @pytest.mark.parametrize(
        "elements, claimed_m, expected",
        [
            ((1, 10**8), 3, CLASS_NOT_M_SET),
            ((1, 2), 10**8, CLASS_GAPSET),
            ((2, 3), 10**8, CLASS_NOT_M_SET),
            ((1, 2, 10**8 + 1), 3, CLASS_M_SET_NOT_GAPSET),
        ],
    )
    def test_memory_follows_the_input_length_not_its_largest_member_or_m(
        self, elements, claimed_m, expected
    ):
        result, peak = traced_peak(classify_image, elements, claimed_m)
        assert result == expected
        assert peak < 1 << 20

    def test_claimed_m_below_1_fails_only_the_m_set_test(self):
        assert _classify((1, 2, 4), element_mask((1, 2, 4)), 0) == CLASS_GAPSET
        with pytest.raises(ValueError, match="m must be >= 1"):
            _classify((1, 4), element_mask((1, 4)), 0)
        with pytest.raises(ValueError, match="m must be >= 1"):
            classify_image((1, 4), 0)


def reference_narrow(elements):
    """Narrowing as a tuple shift: drop the 1, shift the elements before
    the last widest gap down by one and the rest down by two."""
    _, alpha = kappa_and_alpha(Gapset(elements))
    if alpha is None:
        return ()
    return tuple(v - 1 for v in elements[1:alpha]) + tuple(v - 2 for v in elements[alpha:])


class TestNarrow:
    def test_worked_preimages(self):
        assert narrow_max_gap(gapset([1, 2, 4, 7]), 3).elements == (1, 3, 5)
        assert narrow_max_gap(gapset([1, 2, 3, 5, 9]), 4).elements == (1, 2, 4, 7)
        assert narrow_max_gap(gapset([1, 3]), 2).elements == (1,)
        assert narrow_max_gap(gapset([1]), 1).elements == ()

    def test_wrong_kappa_rejected(self):
        with pytest.raises(PreconditionError, match="maximum gap"):
            narrow_max_gap(gapset([1, 2, 4, 7]), 2)

    def test_outside_regime_rejected(self):
        # {1,3,5} narrows to genus 2 with max gap 1: 4 > 3
        with pytest.raises(PreconditionError, match="2g <= 3k"):
            narrow_max_gap(gapset([1, 3, 5]), 2)
        with pytest.raises(PreconditionError):
            narrow_max_gap(gapset([]), 0)

    @pytest.mark.parametrize("source,image", DEPTH2_CASES + DEPTH3_CASES)
    def test_round_trip_on_worked_cases(self, source, image):
        kappa, _ = kappa_and_alpha(gapset(source))
        if 2 * len(source) > 3 * kappa:
            return  # narrowing is only defined inside the regime
        assert narrow_max_gap(gapset(image), kappa + 1).elements == source

    def test_matches_the_tuple_shift_on_every_region_target(self):
        # every target of every (g, k) family with 2g <= 3k, to genus 16
        for genus in range(16):
            for kappa in range(-(-2 * genus // 3), genus + 1):
                for h, *_ in enumeration._iter_records(genus + 1, kappa=kappa + 1):
                    assert narrow_max_gap(Gapset(h), kappa + 1).elements == reference_narrow(h)


class TestShiftBlocks:
    def test_worked_example(self):
        g = gapset(list(range(1, 10)) + [11, 19, 21])
        assert shift_blocks(g) == tuple(range(1, 11)) + (12, 20, 23)

    def test_diverges_from_widening(self):
        g = gapset(list(range(1, 10)) + [11, 19, 21])
        assert widen_max_gap(g).elements == tuple(range(1, 11)) + (12, 21, 23)
        assert shift_blocks(g) != widen_max_gap(g).elements

    @pytest.mark.parametrize("g", range(0, 7))
    def test_ordinary(self, g):
        assert shift_blocks(ordinary_gapset(g)) == tuple(range(1, g + 2))

    def test_depth_cap(self):
        with pytest.raises(UnsupportedDepthError):
            shift_blocks(gapset([1, 3, 5, 7]))

    @pytest.mark.parametrize("g", range(12, 21))
    def test_divergence_family(self, g):
        source = gapset(
            list(range(1, g - 2)) + [g - 1, 2 * g - 5, 2 * g - 3]
        )
        widened = widen_max_gap(source).elements
        shifted = shift_blocks(source)
        assert widened == tuple(range(1, g - 1)) + (g, 2 * g - 3, 2 * g - 1)
        assert shifted == tuple(range(1, g - 1)) + (g, 2 * g - 4, 2 * g - 1)
        assert widened != shifted

    @given(gapsets())
    def test_image_is_a_gapset_whenever_defined(self, g):
        from gapsets import validate_gapset

        if invariants(g).depth <= 3:
            assert isinstance(validate_gapset(shift_blocks(g)), Gapset)


def reference_partition(g):
    """The canonical partition with its multiplicity and block count from
    the oracles' own scans, apart from the partition under test."""
    if g.genus == 0:
        raise EmptyPartitionError("the empty gapset has no canonical partition")
    _, m, _, _, depth, _, _ = oracles.invariants(g.elements)
    blocks = [[] for _ in range(depth)]
    for v in g.elements:
        blocks[v // m].append(v)
    return CanonicalPartition(m, tuple(tuple(b) for b in blocks))


def reference_shift_blocks(g):
    """The blockwise shift with its depth check ahead of the partition."""
    _, m, _, _, depth, _, _ = oracles.invariants(g.elements)
    if depth > 3:
        raise UnsupportedDepthError("blockwise shift needs depth <= 3")
    if g.genus == 0:
        return (1,)
    blocks = list(reference_partition(g).blocks) + [(), ()]
    out = list(blocks[0]) + [m]
    out += [v + 1 for v in blocks[1]]
    out += [v + 2 for v in blocks[2]]
    return tuple(out)


def outcome(fn, g):
    try:
        return fn(g)
    except (EmptyPartitionError, UnsupportedDepthError) as exc:
        return type(exc)


class TestPartitionReference:
    def test_every_gapset_to_genus_12(self):
        raised = 0
        for genus in range(13):
            for g in enumerate_gapsets(genus):
                expected = outcome(reference_shift_blocks, g)
                assert outcome(shift_blocks, g) == expected, g.elements
                raised += expected is UnsupportedDepthError
                assert outcome(canonical_partition, g) == outcome(
                    reference_partition, g
                ), g.elements
        assert raised > 0


class TestRecordKernels:
    def test_record_fed_kernels_match_the_scanning_functions(self):
        # the kernels read m and alpha from the walk's records and compute
        # the depth from them, as the suites do; the public functions scan.
        # `_narrow`, on the image's own alpha, takes every image back to its
        # gapset's mask, which is how the phi suite checks injectivity
        for genus in range(13):
            for e, _, m, _, alpha in enumeration._iter_records(genus):
                g = Gapset(e)
                image, mask = _widen(e, element_mask(e), alpha)
                assert mask == element_mask(image)
                assert _narrow(image, mask, kappa_and_alpha(Gapset(image))[1]) == element_mask(e)
                assert widen_max_gap(g) == (image, m + 1, _classify(image, mask, m + 1))
                if genus == 0:
                    continue
                assert _partition(e, m) == canonical_partition(g).blocks
                depth = -(-(e[-1] + 1) // m)
                if alpha is not None and depth >= 2:
                    assert _widest_pair(e, m, alpha, depth) == classify_widest_pair(g)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_partition_matches_the_range_split_on_every_candidate(self, m):
        # the core suite also partitions planted non-gapsets, which can hold
        # multiples of m and leave middle blocks empty: every non-empty
        # candidate in [1, 14], against a split by value range
        for size in range(1, 15):
            for e in combinations(range(1, 15), size):
                expected = tuple(
                    tuple(v for v in e if i * m <= v < (i + 1) * m)
                    for i in range(-(-(e[-1] + 1) // m))
                )
                assert _partition(e, m) == expected, e

    def test_impossible_widest_pair_raises(self):
        # (1, 3, 4) is no gapset: with m = 2 its widest pair (1, 3) spans
        # blocks 0 and 1 of 3
        with pytest.raises(RuntimeError, match=r"blocks 0, 1 of 3"):
            _widest_pair((1, 3, 4), 2, 1, 3)


class TestClassifyWidestPair:
    # Each family exhibits its case once the inner distance m-2 dominates the
    # boundary distances of 2; below that the last widest pair moves and the
    # case degenerates to split.
    @pytest.mark.parametrize("m", range(5, 11))
    def test_family_both_in_penultimate(self, m):
        g = gapset(list(range(1, m)) + [m + 1, 2 * m - 1, 2 * m + 1])
        assert invariants(g).depth == 3
        assert classify_widest_pair(g) == PAIR_IN_PENULTIMATE

    @pytest.mark.parametrize("m", range(4, 11))
    def test_family_both_in_last(self, m):
        g = gapset(list(range(1, m)) + [m + 1, 2 * m - 1])
        assert invariants(g).depth == 2
        assert classify_widest_pair(g) == PAIR_IN_LAST

    @pytest.mark.parametrize("m", range(3, 11))
    def test_family_split(self, m):
        g = gapset(list(range(1, m)) + [m + 1, 2 * m + 1])
        assert invariants(g).depth == 3
        assert classify_widest_pair(g) == PAIR_SPLIT

    def test_small_m_degenerates_to_split(self, ):
        # at m=3 the widest pairs sit at the block boundaries instead
        assert classify_widest_pair(gapset([1, 2, 4, 5, 7])) == PAIR_SPLIT

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            classify_widest_pair(gapset([1]))
        with pytest.raises(PreconditionError):
            classify_widest_pair(ordinary_gapset(4))

    @given(gapsets(min_genus=2))
    def test_total_on_deep_gapsets(self, g):
        if invariants(g).depth >= 2:
            assert classify_widest_pair(g) in {
                PAIR_IN_PENULTIMATE,
                PAIR_IN_LAST,
                PAIR_SPLIT,
            }


class TestBijection:
    def test_small_family(self):
        report = verify_bijection(6, 4)
        assert report.source_size == report.target_size == 5
        assert report.bijective

    def test_larger_family(self):
        report = verify_bijection(9, 6)
        assert report.source_size == report.target_size == 12
        assert report.bijective

    def test_tiny_families(self):
        report = verify_bijection(0, 0)
        assert report.source_size == report.target_size == 1
        assert report.bijective

    def test_sources_are_read_from_their_records_not_rescanned(self, monkeypatch):
        # a source's m and alpha come from the kappa-pruned walk's record:
        # only the images and the targets are scanned, each once
        sources = [g.elements for g in enumerate_gapsets(9) if kappa_and_alpha(g)[0] == 6]
        targets = [h.elements for h in enumerate_gapsets(10) if kappa_and_alpha(h)[0] == 7]
        images = [widen_max_gap(Gapset(e)).elements for e in sources]
        scanned = []

        def recording(elems):
            scanned.append(elems)
            return _invariants(elems)

        monkeypatch.setattr(maps, "_invariants", recording)
        assert verify_bijection(9, 6).bijective
        assert sorted(scanned) == sorted(images + targets)

    def test_precondition(self):
        with pytest.raises(PreconditionError):
            verify_bijection(7, 4)

    def test_target_genus_checked_before_the_walk(self, monkeypatch):
        def entered(*_args, **_kwargs):
            raise AssertionError("the walk started")

        monkeypatch.setattr(maps, "_iter_records", entered)
        with pytest.raises(AssertionError, match="the walk started"):
            verify_bijection(29, 20)
        with pytest.raises(ResourceLimitError):
            verify_bijection(30, 20)

    def test_grouped_families_give_the_same_report(self):
        # each family the kappa-pruned walk lists has the frozen count-grid
        # size, and widening is a bijection on every one to genus 12
        families = 0
        for genus in range(13):
            for kappa in range(-(-2 * genus // 3), genus + 1):
                report = verify_bijection(genus, kappa)
                assert report.bijective
                assert report.source_size == COUNTS_BY_KAPPA[genus][kappa]
                families += 1
        assert families == 35

    def test_depth2_witness_has_no_depth2_preimage(self):
        # [1,g] + {g+2} arises from the ordinary gapset, never from depth 2
        for g in range(2, 9):
            witness = tuple(range(1, g + 1)) + (g + 2,)
            depth2 = (
                x for x in enumerate_gapsets(g) if invariants(x).depth == 2
            )
            assert witness not in {widen_max_gap(x).elements for x in depth2}
            assert widen_max_gap(ordinary_gapset(g)).elements == witness


class TestWidenedFamilies:
    @pytest.mark.parametrize("genus", range(0, 10))
    def test_depth2_images_are_gapsets_in_the_next_family(self, genus):
        for g in enumerate_gapsets(genus):
            _, _, _, _, depth, kappa, _ = oracles.invariants(g.elements)
            if depth != 2:
                continue
            image = widen_max_gap(g)
            assert image.classification == CLASS_GAPSET
            igenus, _, _, _, idepth, ikappa, _ = oracles.invariants(image.elements)
            assert (idepth, ikappa, igenus) == (
                2,
                kappa + 1,
                genus + 1,
            )

    @pytest.mark.parametrize("genus", range(0, 10))
    def test_injective_within_each_family(self, genus):
        seen = {}
        for g in enumerate_gapsets(genus):
            key = (kappa_and_alpha(g)[0], widen_max_gap(g).elements)
            assert key not in seen
            seen[key] = g
