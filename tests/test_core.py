import copy
import pickle
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gapsets import (
    Gapset,
    GapsetRejection,
    as_candidate,
    canonical_partition,
    enumerate_gapsets,
    gapset,
    hyperelliptic_gapset,
    invariants,
    is_m_extension,
    is_m_set,
    kappa_and_alpha,
    ordinary_gapset,
    validate_gapset,
)
from gapsets.core import (
    CanonicalPartition,
    EmptyPartitionError,
    InvariantRecord,
    _invariants,
    _m_extension,
    _m_set,
    _partition,
    _validate,
    element_mask,
)
from gapsets.enumeration import _iter_records
from gapsets.verification import _windows_empty

import oracles
from strategies import gapsets, small_m_sets
from tracing import traced_peak

# Every subset of [1, 14] with at most 7 elements, the empty one included.
SMALL_CANDIDATES = [
    c for size in range(8) for c in combinations(range(1, 15), size)
]


# Every subset of [1, 14], the empty one included.
ALL_SUBSETS = [c for size in range(15) for c in combinations(range(1, 15), size)]


def reference_validate(values):
    """The oracles' member-by-member split loop, without the bit-mask fast
    accept."""
    elems = as_candidate(values)
    witness = oracles.split_witness(elems)
    return Gapset(elems) if witness is None else GapsetRejection(*witness)


def reference_is_m_set(values, m):
    elems = as_candidate(values)
    present = set(elems)
    return all(i in present for i in range(1, m)) and all(v % m for v in elems)


def reference_is_m_extension(values, m):
    if not reference_is_m_set(values, m):
        return False
    elems = as_candidate(values)
    prev = set(range(1, m))
    for i in range(1, (elems[-1] // m if elems else 0) + 1):
        block = {v for v in elems if i * m < v < (i + 1) * m}
        if not block <= {v + m for v in prev}:
            return False
        prev = block
    return True


def reference_windows_empty(e, m, c):
    """The per-j window loop: for each consecutive pair and each shift s =
    0, m, 2m, ... with s + e[j+1] <= c, test the bits strictly between
    s + e[j] and s + e[j+1]."""
    mask = element_mask(e)
    for j in range(len(e) - 1):
        width = (1 << (e[j + 1] - e[j] - 1)) - 1
        step = 0
        while step + e[j + 1] <= c:
            if (mask >> (step + e[j] + 1)) & width:
                return False
            step += m
    return True


class TestValidate:
    def test_known_gapset(self):
        assert validate_gapset([1, 2, 4, 7]) == Gapset((1, 2, 4, 7))

    def test_empty_is_vacuously_valid(self):
        assert validate_gapset([]) == Gapset(())

    def test_rejection_witness(self):
        result = validate_gapset([1, 4])
        assert isinstance(result, GapsetRejection)
        assert tuple(result) == (4, 2, 2)

    def test_depth_three_example(self):
        g = gapset([1, 2, 3, 4, 6, 9, 11])
        assert invariants(g).depth == 3

    def test_witness_is_lexicographically_smallest(self):
        # z=5 passes x=1 (1 present) and first fails at x=2
        result = validate_gapset([1, 5, 6])
        assert tuple(result) == (5, 2, 3)

    def test_gapset_constructor_raises(self):
        with pytest.raises(ValueError, match="4 = 2 \\+ 2"):
            gapset([1, 4])

    def test_candidate_normalization(self):
        assert as_candidate([5, 1, 3, 3]) == (1, 3, 5)
        with pytest.raises(ValueError):
            as_candidate([0, 1])

    @given(gapsets())
    def test_revalidation_is_idempotent(self, g):
        assert validate_gapset(g.elements) == g

    def test_matches_the_split_loop_on_every_small_candidate(self):
        accepted = 0
        for cand in SMALL_CANDIDATES:
            result = validate_gapset(cand)
            assert result == reference_validate(cand), cand
            accepted += isinstance(result, Gapset)
        assert len(SMALL_CANDIDATES) == 9908
        # the gapsets of genus <= 7 inside [1, 14]: all of them
        assert accepted == 1 + 1 + 2 + 4 + 7 + 12 + 23 + 39

    def test_unnormalized_input(self):
        assert validate_gapset([7, 2, 4, 1, 2]) == Gapset((1, 2, 4, 7))
        assert tuple(validate_gapset([5, 1, 6, 6])) == (5, 2, 3)

    def test_memory_follows_the_input_length_not_its_largest_member(self):
        result, peak = traced_peak(validate_gapset, (1, 10**8))
        assert tuple(result) == (10**8, 2, 10**8 - 2)
        assert peak < 1 << 20


def wrapped_validate(elems, mask):
    """`_validate`'s verdict in `validate_gapset`'s terms."""
    rejection = _validate(elems, mask)
    return Gapset(elems) if rejection is None else rejection


class TestMaskKernels:
    """Each set test's kernel, fed a normalized tuple and its mask, agrees
    with its public wrapper, which normalizes and builds the mask itself."""

    def test_validate_on_every_subset(self):
        for cand in ALL_SUBSETS:
            assert wrapped_validate(cand, element_mask(cand)) == validate_gapset(cand), cand

    @pytest.mark.parametrize("m", range(1, 9))
    def test_m_set_and_m_extension_on_every_subset(self, m):
        for cand in ALL_SUBSETS:
            mask = element_mask(cand)
            assert _m_set(cand, mask, m) == is_m_set(cand, m), cand
            assert _m_extension(cand, mask, m) == is_m_extension(cand, m), cand

    @pytest.mark.parametrize("m", range(1, 9))
    def test_unnormalized_input(self, m):
        for cand in ALL_SUBSETS[::7]:
            messy = list(reversed(cand)) + list(cand[:2])
            mask = element_mask(cand)
            assert wrapped_validate(cand, mask) == validate_gapset(messy), messy
            assert _m_set(cand, mask, m) == is_m_set(messy, m), messy
            assert _m_extension(cand, mask, m) == is_m_extension(messy, m), messy

    def test_huge_element(self):
        # _validate reads no mask for a member at or above twice the length
        assert wrapped_validate((1, 10**8), 0) == validate_gapset((1, 10**8))
        elems = (1, 2, 10**6 + 1)
        mask = element_mask(elems)
        assert wrapped_validate(elems, mask) == validate_gapset(elems)
        ms = (3, 4, 10**6 + 1)
        assert [_m_set(elems, mask, m) for m in ms] == [is_m_set(elems, m) for m in ms]
        assert [_m_set(elems, mask, m) for m in ms] == [True, False, False]
        assert [_m_extension(elems, mask, m) for m in ms] == [
            is_m_extension(elems, m) for m in ms
        ]


class TestValueTypes:
    def test_values_survive_a_pickle_round_trip(self):
        from gapsets.maps import verify_bijection, widen_max_gap
        from gapsets.verification import Violation

        g = gapset([1, 2, 4, 7])
        values = [
            g,
            validate_gapset([1, 4]),
            invariants(g),
            canonical_partition(g),
            widen_max_gap(g),
            verify_bijection(4, 3),
            Violation("core", "planted", (1, 4), "detail"),
        ]
        for value in values:
            copy = pickle.loads(pickle.dumps(value))
            assert type(copy) is type(value) and copy == value, value

    def test_gapset_cannot_be_changed(self):
        # assigning or deleting a field or any other name raises AttributeError
        g = gapset([1, 2, 4, 7])
        before = hash(g)
        attempts = [
            lambda: setattr(g, "elements", (1, 2, 3)),
            lambda: setattr(g, "extra", 1),
            lambda: delattr(g, "elements"),
        ]
        for attempt in attempts:
            with pytest.raises(AttributeError):
                attempt()
            assert g.elements == (1, 2, 4, 7) and hash(g) == before
        assert not hasattr(g, "extra")

    def test_gapset_has_no_instance_dict(self):
        g = gapset([1, 2, 4, 7])
        assert not hasattr(g, "__dict__")
        assert Gapset.__slots__ == ("elements",)

    def test_gapset_equals_and_orders_only_against_gapsets(self):
        assert Gapset((1,)) != ((1,),)
        assert Gapset((1,)) != (1,)
        assert Gapset((1, 2)) == Gapset((1, 2))
        with pytest.raises(TypeError):
            Gapset((1,)) < ((2,),)
        with pytest.raises(TypeError):
            Gapset((1,)) <= (1,)
        with pytest.raises(TypeError):
            Gapset((1,)) > (1,)
        with pytest.raises(TypeError):
            Gapset((1,)) >= ((1,),)
        with pytest.raises(TypeError):
            (1,) >= Gapset((1,))

    def test_scan_oracles_are_test_oracles_not_package_names(self):
        # `multiplicity` and `conductor` live in tests/oracles.py
        import gapsets as package
        from gapsets import core

        for name in ("multiplicity", "conductor"):
            with pytest.raises(AttributeError, match=name):
                getattr(core, name)
            with pytest.raises(AttributeError, match=name):
                getattr(package, name)

    def test_gapsets_sort_lexicographically_on_elements(self):
        values = [gapset([1, 3]), gapset([]), gapset([1, 2, 4]), gapset([1, 2]), gapset([1])]
        assert [g.elements for g in sorted(values)] == [
            (), (1,), (1, 2), (1, 2, 4), (1, 3)
        ]
        assert Gapset((1, 2)) < Gapset((1, 3)) <= Gapset((1, 3))
        assert Gapset((2,)) > Gapset((1, 3)) >= Gapset((1, 3))

    def test_equal_gapsets_hash_equal(self):
        a, b = gapset([4, 1, 2]), Gapset((1, 2, 4))
        assert a == b and a is not b and hash(a) == hash(b)
        assert len({a, b, gapset([1, 2])}) == 2

    def test_gapset_repr(self):
        assert repr(gapset([1, 2, 4])) == "Gapset(elements=(1, 2, 4))"
        assert repr(Gapset(())) == "Gapset(elements=())"

    def test_gapset_survives_copy_and_deepcopy(self):
        # pickling is in test_values_survive_a_pickle_round_trip
        g = gapset([1, 2, 4, 7])
        for copied in (copy.deepcopy(g), copy.copy(g)):
            assert type(copied) is Gapset and copied == g
            assert copied.elements == (1, 2, 4, 7) and hash(copied) == hash(g)

    @pytest.mark.parametrize("elements", [(2, 1), (1, 1), (0, 1), (-1,)])
    def test_unsorted_or_non_positive_elements_raise(self, elements):
        with pytest.raises(ValueError, match="strictly increasing"):
            Gapset(elements)

    def test_records_equal_the_tuple_of_their_fields(self):
        assert validate_gapset([1, 4]) == (4, 2, 2)
        assert canonical_partition(gapset([1, 2, 4, 7])) == (3, ((1, 2), (4,), (7,)))

    def test_membership_matches_the_element_set(self):
        for genus in range(9):
            for g in enumerate_gapsets(genus):
                members = set(g.elements)
                for v in range(-1, 2 * genus + 2):
                    assert (v in g) == (v in members), (g, v)


class TestInvariants:
    def test_empty(self):
        rec = invariants(gapset([]))
        assert (rec.genus, rec.multiplicity, rec.conductor, rec.depth) == (0, 1, 0, 0)
        assert rec.frobenius == -1
        assert rec.kappa == 0 and rec.alpha is None

    def test_singleton(self):
        rec = invariants(gapset([1]))
        assert (rec.genus, rec.multiplicity, rec.conductor, rec.frobenius) == (1, 2, 2, 1)
        assert (rec.depth, rec.kappa, rec.alpha) == (1, 1, None)

    @pytest.mark.parametrize("g", [1, 2, 5, 9])
    def test_ordinary(self, g):
        rec = invariants(ordinary_gapset(g))
        assert (rec.multiplicity, rec.conductor, rec.depth) == (g + 1, g + 1, 1)

    @pytest.mark.parametrize("g", [2, 3, 7, 11])
    def test_hyperelliptic(self, g):
        rec = invariants(hyperelliptic_gapset(g))
        assert (rec.multiplicity, rec.conductor, rec.depth) == (2, 2 * g, g)

    def test_worked_example(self):
        rec = invariants(gapset([1, 2, 4, 7]))
        assert rec == type(rec)(
            genus=4, multiplicity=3, conductor=8, frobenius=7, depth=3, kappa=3, alpha=3
        )

    @given(gapsets())
    def test_frobenius_and_depth_consistency(self, g):
        rec = invariants(g)
        assert rec.frobenius == rec.conductor - 1
        assert rec.depth == -(-rec.conductor // rec.multiplicity)

    @given(gapsets(min_genus=1))
    def test_element_bounds(self, g):
        # each j-th element sits in [j, 2j-1]
        for j, v in enumerate(g.elements, start=1):
            assert j <= v <= 2 * j - 1

    @given(gapsets(min_genus=1))
    def test_shifted_gap_windows_are_empty(self, g):
        rec = invariants(g)
        e = g.elements
        for j in range(rec.genus - 1):
            shift = 0
            while shift + e[j + 1] <= rec.conductor:
                assert not any(shift + e[j] < v < shift + e[j + 1] for v in e)
                shift += rec.multiplicity


class TestOneScanKernel:
    @pytest.mark.parametrize(
        "e", [(), (1,), (2,), (2, 3), (1, 3, 6), (1, 2, 3)], ids=str
    )
    def test_small_cases(self, e):
        assert _invariants(e) == oracles.invariants(e)

    @pytest.mark.parametrize(
        "max_genus", [12, pytest.param(20, marks=pytest.mark.slow)]
    )
    def test_every_gapset(self, max_genus):
        for genus in range(max_genus + 1):
            for e, *_ in _iter_records(genus):
                assert _invariants(e) == oracles.invariants(e), e

    def test_kernels_return_plain_tuples_the_public_functions_wrap(self):
        # no record object per call: `_invariants` gives the plain 7-tuple in
        # InvariantRecord field order, `_partition` the tuple of blocks
        for genus in range(13):
            for e, _, m, _, _ in _iter_records(genus):
                g = Gapset(e)
                scan = _invariants(e)
                assert type(scan) is tuple
                assert InvariantRecord(*scan) == invariants(g)
                assert type(invariants(g)) is InvariantRecord
                if genus:
                    blocks = _partition(e, m)
                    assert type(blocks) is tuple
                    assert blocks == canonical_partition(g).blocks
                    assert canonical_partition(g) == CanonicalPartition(m, blocks)

    # mostly not gapsets: the kernel needs only increasing positive elements
    @given(st.sets(st.integers(1, 40), max_size=20).map(sorted).map(tuple))
    def test_increasing_tuples(self, e):
        assert _invariants(e) == oracles.invariants(e)


class TestShiftedGapWindows:
    def test_known_verdicts(self):
        # {1, 3, 4} with m = 2: the window (1, 3) shifted by 2 is (3, 5), which holds 4
        assert not _windows_empty((1, 3, 4), element_mask((1, 3, 4)), 2, 5)
        assert _windows_empty((1, 2, 4, 7), element_mask((1, 2, 4, 7)), 3, 8)

    @pytest.mark.parametrize("m", range(1, 8))
    def test_match_the_per_j_loop(self, m):
        # every candidate of genus >= 2 in [1, 14], with the conductor at,
        # just past and well past its largest element
        failing = 0
        for e in SMALL_CANDIDATES:
            if len(e) < 2:
                continue
            for c in (e[-1], e[-1] + 1, e[-1] + 3):
                verdict = _windows_empty(e, element_mask(e), m, c)
                assert verdict == reference_windows_empty(e, m, c), (e, m, c)
                failing += not verdict
        assert failing > 0


class TestKappaAlpha:
    def test_examples(self):
        assert kappa_and_alpha(gapset([1, 2, 5])) == (3, 2)
        assert kappa_and_alpha(gapset([1, 3, 5])) == (2, 2)
        assert kappa_and_alpha(gapset([1])) == (1, None)
        assert kappa_and_alpha(gapset([])) == (0, None)

    @given(gapsets(min_genus=2))
    def test_alpha_is_last_widest_index(self, g):
        kappa, alpha = kappa_and_alpha(g)
        e = g.elements
        widest = [i + 1 for i in range(len(e) - 1) if e[i + 1] - e[i] == kappa]
        assert widest and alpha == widest[-1]


class TestCanonicalPartition:
    def test_worked_example(self):
        part = canonical_partition(gapset([1, 2, 4, 7]))
        assert part.multiplicity == 3
        assert part.blocks == ((1, 2), (4,), (7,))

    def test_ordinary_single_block(self):
        part = canonical_partition(ordinary_gapset(6))
        assert part.blocks == ((1, 2, 3, 4, 5, 6),)

    def test_three_block_example(self):
        g = gapset(list(range(1, 10)) + [11, 19, 21])
        part = canonical_partition(g)
        assert part.multiplicity == 10
        assert part.blocks == (tuple(range(1, 10)), (11, 19), (21,))

    def test_empty_rejected(self):
        with pytest.raises(EmptyPartitionError):
            canonical_partition(gapset([]))

    @given(gapsets(min_genus=1))
    def test_blocks_agree_with_depth_and_union(self, g):
        rec = invariants(g)
        part = canonical_partition(g)
        assert len(part.blocks) == rec.depth
        assert tuple(v for b in part.blocks for v in b) == g.elements
        assert part.blocks[0] == tuple(range(1, rec.multiplicity))


class TestMSets:
    def test_not_a_6_set(self):
        assert not is_m_set([1, 2, 3, 4, 5, 7, 8, 10, 12, 16], 6)

    def test_an_11_set(self):
        elems = list(range(1, 11)) + [13, 14, 15, 18, 19, 24, 30]
        assert is_m_set(elems, 11)

    def test_small_cases(self):
        assert is_m_set([1, 2], 3)
        assert is_m_set([], 1)
        assert not is_m_set([2], 1)

    def test_extension_examples(self):
        assert is_m_extension([1, 2, 5], 3)
        assert not is_m_extension([1, 2, 7], 3)

    # m = 1, and m at or above the largest member of every candidate;
    # the empty candidate is among them
    @pytest.mark.parametrize("m", [*range(1, 8), 14, 15, 16, 21])
    def test_match_set_references(self, m):
        for cand in SMALL_CANDIDATES:
            assert is_m_set(cand, m) == reference_is_m_set(cand, m), cand
            assert is_m_extension(cand, m) == reference_is_m_extension(cand, m), cand

    @pytest.mark.parametrize("m", range(1, 9))
    def test_unnormalized_input_matches_the_references(self, m):
        for cand in SMALL_CANDIDATES[::7]:
            messy = list(reversed(cand)) + list(cand[:2])
            assert is_m_set(messy, m) == reference_is_m_set(cand, m), messy
            assert is_m_extension(messy, m) == reference_is_m_extension(cand, m), messy

    def test_normalization_and_bad_m(self):
        assert is_m_set([2, 1, 2, 5], 3)
        assert is_m_extension([5, 2, 1, 1], 3)
        for fn in (is_m_set, is_m_extension):
            with pytest.raises(ValueError):
                fn([1], 0)
            with pytest.raises(ValueError):
                fn([0, 1], 2)

    @pytest.mark.parametrize(
        "cand, m, m_set, m_extension",
        [
            ((1, 10**8), 3, False, False),
            ((1, 2), 10**8, False, False),
            ((), 10**8, False, False),
            ((1, 2, 10**8 + 1), 3, True, False),
            ((1, 2, 4, 5, 10**8 - 2), 3, True, False),
            ((1, 2, 4, 5, 10**8 - 1), 3, False, False),
        ],
    )
    def test_memory_follows_the_input_length_not_its_largest_member_or_m(
        self, cand, m, m_set, m_extension
    ):
        for fn, verdict in ((is_m_set, m_set), (is_m_extension, m_extension)):
            result, peak = traced_peak(fn, cand, m)
            assert result is verdict, fn
            assert peak < 1 << 20, fn

    @given(gapsets())
    def test_every_gapset_extends_its_multiplicity(self, g):
        m = invariants(g).multiplicity
        assert is_m_extension(g.elements, m)
        assert is_m_set(g.elements, m)

    @given(small_m_sets())
    def test_m_sets_below_twice_m_are_gapsets(self, case):
        # any m-set inside [1, 2m-1] validates, with multiplicity m and depth <= 2
        m, elems = case
        result = validate_gapset(elems)
        assert isinstance(result, Gapset)
        rec = invariants(result)
        assert rec.depth <= 2
        if elems:
            assert rec.multiplicity == m
