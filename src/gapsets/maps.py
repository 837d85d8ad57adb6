"""Maps between families of pure sparse gapsets.

The central operation widens the last widest gap of a gapset: insert 1 at
the bottom, shift every element up to the widest pair by +1 and everything
after it by +2.  Genus and maximum gap both grow by one.  Restricted to
pure kappa-sparse gapsets of genus g with 2g <= 3*kappa, this is a
bijection onto the pure (kappa+1)-sparse gapsets of genus g+1, with an
explicit inverse (drop the 1, shift back).

A second, different genus-raising map shifts the canonical-partition
blocks instead (adjoin the multiplicity to block 0, translate block i up
by i); it exists only for depth <= 3 and generally disagrees with the
gap-widening map.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

from .core import (
    Elements,
    Gapset,
    _invariants,
    _m_set,
    _validate,
    as_candidate,
    canonical_partition,
    element_mask,
    invariants,
    is_m_set,
    validate_gapset,
)
from .enumeration import _check_genus, _iter_records

CLASS_GAPSET = "gapset"
CLASS_M_SET_NOT_GAPSET = "m-set-not-gapset"
CLASS_NOT_M_SET = "not-m-set"

PAIR_IN_PENULTIMATE = "both-in-penultimate"
PAIR_IN_LAST = "both-in-last"
PAIR_SPLIT = "split"


class PreconditionError(ValueError):
    """An operation was called outside its guaranteed domain."""


class UnsupportedDepthError(ValueError):
    """The blockwise shift is defined only for depth <= 3."""


class WidenImage(NamedTuple):
    """Image of a gapset under the gap-widening map, eagerly classified.

    claimed_m is the source multiplicity plus one; classification records
    whether the image is itself a gapset, merely a claimed_m-set, or not
    even that.
    """

    elements: Elements
    claimed_m: int
    classification: str


def widen_max_gap(g: Gapset) -> WidenImage:
    """Insert 1 and widen the last widest gap by one.

    Small cases: the empty gapset maps to {1} and {1} maps to {1,3} (no
    element precedes the widest gap, so everything shifts by +2).  Takes
    alpha and the multiplicity from one `_invariants` scan, then widens
    with `_widen` and classifies with `_classify` on the image's mask.
    """
    _, m, _, _, _, _, alpha = _invariants(g.elements)
    image, mask = _widen(g.elements, element_mask(g.elements), alpha)
    claimed_m = m + 1
    return WidenImage(image, claimed_m, _classify(image, mask, claimed_m))


def _widen(
    elems: Elements, mask: int, alpha: Optional[int]
) -> tuple[Elements, int]:
    """The widened image of a gapset's elements, given their `element_mask`
    and alpha (None below genus 2), and the image's `element_mask`.

    The image mask comes from `mask` with two shifts, not from the image:
    bit 1 for the inserted 1, the bits up to elems[alpha - 1] shifted by
    one and the rest by two.
    """
    cut = alpha if alpha is not None else 0
    image = (1, *[v + 1 for v in elems[:cut]], *[v + 2 for v in elems[cut:]])
    low = mask & ((2 << elems[cut - 1]) - 1) if cut else 0
    return image, 2 | low << 1 | (mask ^ low) << 2


def _narrow(image: Elements, mask: int, alpha: Optional[int]) -> int:
    """The `element_mask` of `narrow_max_gap`'s result for a widened image,
    given the image's `element_mask` and its own alpha (None below genus 2):
    the bits up to image[alpha - 1] shift down by one and the rest by two,
    and bit 0, the inserted 1's, is dropped.  It undoes `_widen`."""
    low = mask & ((2 << image[alpha - 1]) - 1) if alpha else mask
    return (low >> 1 | (mask ^ low) >> 2) & -2


def classify_image(elements: Iterable[int], claimed_m: int) -> str:
    """Classify a map's raw image: CLASS_GAPSET if it is a gapset, else
    CLASS_M_SET_NOT_GAPSET if it is a claimed_m-set, else CLASS_NOT_M_SET.
    The image is normalized and classified by the public set tests, which
    build no mask wider than twice its length."""
    elems = as_candidate(elements)
    if isinstance(validate_gapset(elems), Gapset):
        return CLASS_GAPSET
    return CLASS_M_SET_NOT_GAPSET if is_m_set(elems, claimed_m) else CLASS_NOT_M_SET


def _classify(elems: Elements, mask: int, claimed_m: int) -> str:
    """`classify_image` of a normalized image with its `element_mask`: the
    gapset test of `validate_gapset`, then the claimed_m-set test, both on
    the mask."""
    if _validate(elems, mask) is None:
        return CLASS_GAPSET
    if _m_set(elems, mask, claimed_m):
        return CLASS_M_SET_NOT_GAPSET
    return CLASS_NOT_M_SET


def narrow_max_gap(h: Gapset, max_gap: int) -> Gapset:
    """Inverse of :func:`widen_max_gap`: drop the 1 and shift back.

    `max_gap` is the expected maximum gap of the input (taken explicitly so
    a mismatch is reported instead of silently reinterpreted).  Requires
    2g <= 3*kappa for the output's genus g and maximum gap kappa; narrowing
    is only guaranteed to land on a gapset in that regime.  The shift is
    `_narrow` on the input's mask, with alpha from one `_invariants` scan.
    """
    if h.genus == 0:
        raise PreconditionError("the empty gapset is not a widened image")
    _, _, _, _, _, kappa, alpha = _invariants(h.elements)
    if kappa != max_gap:
        raise PreconditionError(
            f"input has maximum gap {kappa}, expected {max_gap}"
        )
    out_genus = h.genus - 1
    out_kappa = max_gap - 1
    if 2 * out_genus > 3 * out_kappa:
        raise PreconditionError(
            f"narrowing to genus {out_genus} with maximum gap {out_kappa} "
            f"violates 2g <= 3k"
        )
    back = _narrow(h.elements, element_mask(h.elements), alpha)
    narrowed = tuple(v for v in range(back.bit_length()) if back >> v & 1)
    result = validate_gapset(narrowed)
    if isinstance(result, Gapset):
        return result
    raise RuntimeError(
        f"narrowed image {narrowed} is not a gapset "
        f"(split {tuple(result)}); this should be impossible"
    )


def shift_blocks(g: Gapset) -> Elements:
    """Blockwise genus-raising shift, defined for depth <= 3 only.

    With canonical blocks B0, B1, B2 and multiplicity m, the image is
    (B0 + {m}) joined with B1+1 and B2+2.  The result is returned raw
    (it is a gapset whenever the input has depth <= 3).  The empty gapset
    maps to {1}.
    """
    if g.genus == 0:
        return (1,)
    part = canonical_partition(g)
    if len(part.blocks) > 3:
        raise UnsupportedDepthError("blockwise shift needs depth <= 3")
    blocks = list(part.blocks) + [(), ()]
    out = list(blocks[0]) + [part.multiplicity]
    out += [v + 1 for v in blocks[1]]
    out += [v + 2 for v in blocks[2]]
    return tuple(out)


def classify_widest_pair(g: Gapset) -> str:
    """Which canonical blocks hold the last widest pair of elements.

    The pair always lands entirely in the last block, entirely in the
    penultimate block, or straddles the two; any other configuration would
    contradict the structure theory, so it raises.  Scans the gapset with
    `invariants`, checks the preconditions and decides with `_widest_pair`.
    """
    rec = invariants(g)
    if rec.genus < 2 or rec.alpha is None:
        raise PreconditionError("need genus >= 2")
    if rec.depth < 2:
        raise PreconditionError("need depth >= 2")
    return _widest_pair(g.elements, rec.multiplicity, rec.alpha, rec.depth)


def _widest_pair(elems: Elements, m: int, alpha: int, depth: int) -> str:
    """`classify_widest_pair` of elements whose multiplicity, alpha and
    depth >= 2 the caller already has."""
    lo = elems[alpha - 1] // m
    hi = elems[alpha] // m
    penultimate, last = depth - 2, depth - 1
    if lo == penultimate and hi == penultimate:
        return PAIR_IN_PENULTIMATE
    if lo == last and hi == last:
        return PAIR_IN_LAST
    if lo == penultimate and hi == last:
        return PAIR_SPLIT
    raise RuntimeError(
        f"widest pair of {elems} sits in blocks {lo}, {hi} "
        f"of {depth}; this should be impossible"
    )


class BijectionReport(NamedTuple):
    """Result of checking the widening bijection between one (genus, kappa)
    family and its (genus+1, kappa+1) counterpart.

    Flag tuples are ordered like the enumerations: forward and membership
    flags follow the source family, backward flags the target family.
    """

    genus: int
    kappa: int
    source_size: int
    target_size: int
    forward_round_trip: tuple[bool, ...]
    backward_round_trip: tuple[bool, ...]
    image_membership: tuple[bool, ...]

    @property
    def counts_equal(self) -> bool:
        return self.source_size == self.target_size

    @property
    def bijective(self) -> bool:
        return (
            self.counts_equal
            and all(self.forward_round_trip)
            and all(self.backward_round_trip)
            and all(self.image_membership)
        )


def verify_bijection(
    genus: int,
    kappa: int,
    *,
    by_genus: object = None,
) -> BijectionReport:
    """List both families and check the bijection gapset by gapset.

    Requires 2*genus <= 3*kappa; genus + 1 is checked against the ceiling
    before either family is listed.  Each family comes from the kappa-pruned
    walk, `_iter_records(genus, kappa=kappa)` and `_iter_records(genus + 1,
    kappa=kappa + 1)`, so no genus is walked in full.  `by_genus` is not
    read: it stays only because the benchmark's maps layer passes it, until
    ROADMAP item 5a.

    Each gapset's `element_mask` is built once.  A source's m and alpha
    come from its walk record, as in the phi suite, so no source is
    scanned; each image and each target is scanned once with
    `_invariants`, since the flags check their kappa and alpha.  A
    source's `_widen` image is a member if its mask is a target's, and
    round-trips if `_classify` finds it a gapset of maximum gap kappa + 1
    that `_narrow` takes back to the source.  A target round-trips if it
    has maximum gap kappa + 1 and `_narrow` takes it to a source whose
    image it is.  A broken map fails flags and raises nothing; no flag
    reads the order of either family.
    """
    if 2 * genus > 3 * kappa:
        raise PreconditionError(f"need 2g <= 3k, got g={genus}, k={kappa}")
    _check_genus(genus)
    _check_genus(genus + 1)
    targets = [
        (h, element_mask(h)) for h, _, _, _, _ in _iter_records(genus + 1, kappa=kappa + 1)
    ]
    target_masks = {mask for _, mask in targets}
    forward = []
    membership = []
    widened = {}  # a source's mask -> its image's mask
    for e, _, m, _, alpha in _iter_records(genus, kappa=kappa):
        mask = element_mask(e)
        image, imask = _widen(e, mask, alpha)
        widened[mask] = imask
        membership.append(imask in target_masks)
        _, _, _, _, _, ikappa, ialpha = _invariants(image)
        forward.append(
            _classify(image, imask, m + 1) == CLASS_GAPSET
            and ikappa == kappa + 1
            and _narrow(image, imask, ialpha) == mask
        )
    backward = []
    for h, mask in targets:
        _, _, _, _, _, hkappa, halpha = _invariants(h)
        backward.append(
            hkappa == kappa + 1 and widened.get(_narrow(h, mask, halpha)) == mask
        )
    return BijectionReport(
        genus, kappa, len(forward), len(targets), tuple(forward), tuple(backward), tuple(membership)
    )
