"""Gap sets of numerical semigroups: value types and exact invariants.

A gapset is the finite complement, inside the positive integers, of a
numerical semigroup.  Equivalently, a finite set G such that every additive
split z = x + y of a member z (with x, y >= 1) has x in G or y in G.  All
invariants here are exact integer computations on the sorted element
sequence; nothing is approximated.

Conventions for tiny cases follow the standard ones: the empty gapset has
multiplicity 1, conductor 0, depth 0 and maximum gap (kappa) 0; the gapset
{1} has kappa 1.  The Frobenius number is conductor - 1, hence -1 for the
empty gapset.

Values are a slotted `Gapset` and named-tuple records (`GapsetRejection`,
`InvariantRecord`, `CanonicalPartition`); a record compares equal to the
plain tuple of its fields.  The private kernels `_invariants` and
`_partition` return those plain tuples, which the public functions wrap.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import total_ordering
from typing import Iterable, Iterator, NamedTuple, Optional, Union

Elements = tuple[int, ...]


class EmptyPartitionError(ValueError):
    """Raised when a block partition is requested for the empty gapset."""


def as_candidate(values: Iterable[int]) -> Elements:
    """Normalize an iterable of integers to a strictly increasing tuple.

    Duplicates collapse (set semantics); non-positive entries are rejected.
    The result is a raw candidate: no gapset property is assumed.
    """
    elems = tuple(sorted(set(values)))
    if elems and elems[0] < 1:
        raise ValueError(f"candidate elements must be >= 1, got {elems[0]}")
    return elems


@total_ordering
class Gapset:
    """A validated gapset.  Construct via :func:`validate_gapset` or :func:`gapset`.

    Instances are immutable, slotted values holding only their elements: they
    hash, compare lexicographically on elements (only with other gapsets;
    `total_ordering` derives <=, > and >= from < and ==) and pickle.  `in`
    tests membership by iterating over the elements.  Nothing can change
    one: assigning or deleting any attribute raises `AttributeError`.
    """

    __slots__ = ("elements",)

    elements: Elements

    def __init__(self, elements: Elements) -> None:
        prev = 0
        for v in elements:
            if v <= prev:
                raise ValueError("elements must be strictly increasing and >= 1")
            prev = v
        object.__setattr__(self, "elements", elements)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to {name!r}: a Gapset is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: a Gapset is immutable")

    def __reduce__(self) -> tuple[type[Gapset], tuple[Elements]]:
        return Gapset, (self.elements,)

    def __repr__(self) -> str:
        return f"Gapset(elements={self.elements!r})"

    def __hash__(self) -> int:
        return hash((self.elements,))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.elements == other.elements
        return NotImplemented

    def __lt__(self, other: Gapset) -> bool:
        if other.__class__ is self.__class__:
            return self.elements < other.elements
        return NotImplemented

    @property
    def genus(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)


class GapsetRejection(NamedTuple):
    """Witness that a candidate is not a gapset: value = left + right with
    neither part present.  The witness is the lexicographically smallest
    failing (value, left) pair, so rejections are deterministic."""

    value: int
    left: int
    right: int


def element_mask(elements: Iterable[int]) -> int:
    """The set as an int with bit v set for every member v."""
    mask = 0
    for v in elements:
        mask |= 1 << v
    return mask


def validate_gapset(values: Iterable[int]) -> Union[Gapset, GapsetRejection]:
    """Check the gapset property and return a Gapset, or the smallest failing split.

    A candidate passes iff for every member z and every split z = x + y with
    1 <= x <= y, at least one of x, y is a member.  The empty set passes
    vacuously.  The candidate is normalized with `as_candidate` and checked
    by `_validate`; its mask is built only where `_validate` reads it, so
    the cost follows the input's length, never the size of its largest
    member.
    """
    elems = as_candidate(values)
    fits = not elems or elems[-1] < 2 * len(elems)
    rejection = _validate(elems, element_mask(elems) if fits else 0)
    return Gapset(elems) if rejection is None else rejection


def _validate(elems: Elements, mask: int) -> Optional[GapsetRejection]:
    """The smallest failing split of a normalized candidate, or None if it
    is a gapset.

    A gapset of genus g lies in [1, 2g - 1], so only a candidate whose
    largest member is below twice its size can pass.  Such a candidate is
    checked on `mask`, its `element_mask`, first: with `holes` the
    non-members below the largest member, it passes iff no sum of two holes
    is a member, i.e. (holes << s) & mask == 0 for every hole s (the smaller
    part of a split is at most half the largest member, so only those s are
    tried).  The mask is read for no other candidate (pass 0): those go
    through the member-by-member split loop, which finds the witness.  That
    loop tests membership in a set, and a member that passes has at most
    |G| splits.
    """
    top = elems[-1] if elems else 0
    if top < 2 * len(elems):
        holes = ((1 << top) - 2) & ~mask
        small = holes & ((2 << (top // 2)) - 1)
        while small:
            low = small & -small
            if (holes << (low.bit_length() - 1)) & mask:
                break
            small ^= low
        else:
            return None
    members = set(elems)
    for z in elems:
        for x in range(1, z // 2 + 1):
            if x not in members and z - x not in members:
                return GapsetRejection(z, x, z - x)
    return None


def gapset(values: Iterable[int]) -> Gapset:
    """Validating constructor; raises ValueError with the witness on failure."""
    result = validate_gapset(values)
    if isinstance(result, GapsetRejection):
        raise ValueError(
            f"not a gapset: {result.value} = {result.left} + {result.right} "
            "with neither part in the set"
        )
    return result


def ordinary_gapset(genus: int) -> Gapset:
    """[1, g]: the unique gapset of depth 1 (depth 0 for genus 0)."""
    return Gapset(tuple(range(1, genus + 1)))


def hyperelliptic_gapset(genus: int) -> Gapset:
    """The odd numbers in [1, 2g-1]: the unique gapset of depth g."""
    return Gapset(tuple(range(1, 2 * genus, 2)))


class InvariantRecord(NamedTuple):
    """The full invariant bundle of a gapset.

    frobenius = conductor - 1 always; depth = ceil(conductor / multiplicity);
    kappa is the maximum gap between consecutive elements (with the small-case
    conventions above); alpha is the largest index i (1-based) such that
    elements[i+1] - elements[i] equals kappa, present iff genus >= 2.
    """

    genus: int
    multiplicity: int
    conductor: int
    frobenius: int
    depth: int
    kappa: int
    alpha: Optional[int]


def kappa_and_alpha(g: Gapset) -> tuple[int, Optional[int]]:
    """Maximum consecutive difference and the last index attaining it.

    kappa is 0 for the empty gapset and 1 for {1} (no pair exists, so alpha
    is absent in both cases).  For genus >= 2, alpha is 1-based and lies in
    [1, genus - 1].
    """
    elems = g.elements
    if len(elems) == 0:
        return 0, None
    if len(elems) == 1:
        return 1, None
    kappa = alpha = i = 0
    prev = elems[0]
    for v in elems[1:]:
        i += 1
        d = v - prev
        if d >= kappa:
            kappa = d
            alpha = i
        prev = v
    return kappa, alpha


def invariants(g: Gapset) -> InvariantRecord:
    """Compute every invariant in one scan of the elements (`_invariants`)."""
    return InvariantRecord(*_invariants(g.elements))


def _invariants(
    elems: Elements,
) -> tuple[int, int, int, int, int, int, Optional[int]]:
    """`invariants` of strictly increasing positive elements, in one loop,
    as a plain tuple in `InvariantRecord` field order.

    The loop takes kappa and alpha as `kappa_and_alpha` does, and the
    multiplicity m from the first step above 1, the step from 0 to the
    first element included: the elements before it are 1, 2, ..., m - 1.
    So m is 1 when the first element is not 1, and the largest element
    plus 1 when no step exceeds 1: the least positive integer not in any
    such tuple, gapset or not.  The first step above 1 is a new widest
    step, so m is tested only where kappa is updated.
    """
    g = len(elems)
    if g < 2:
        # no consecutive pair: kappa is g by convention and alpha is absent
        c = elems[0] + 1 if g else 0
        m = 2 if c == 2 else 1
        return g, m, c, c - 1, -(-c // m), g, None
    prev = elems[0]
    m = 0 if prev == 1 else 1  # 0: no step above 1 yet
    kappa = alpha = i = 0
    for v in elems[1:]:
        i += 1
        d = v - prev
        if d >= kappa:
            if d > 1 and not m:
                m = prev + 1
            kappa = d
            alpha = i
        prev = v
    m = m or prev + 1
    c = prev + 1
    return g, m, c, prev, -(-c // m), kappa, alpha


class CanonicalPartition(NamedTuple):
    """Blocks of a gapset relative to its multiplicity m: block 0 is
    [1, m-1] and block i is the part of the gapset in [i*m + 1, (i+1)*m - 1].
    The number of blocks equals the depth."""

    multiplicity: int
    blocks: tuple[Elements, ...]


def canonical_partition(g: Gapset) -> CanonicalPartition:
    """Split a non-empty gapset into its multiplicity-sized range blocks."""
    if g.genus == 0:
        raise EmptyPartitionError("the empty gapset has no canonical partition")
    m = _invariants(g.elements)[1]
    return CanonicalPartition(m, _partition(g.elements, m))


def _partition(elems: Elements, m: int) -> tuple[Elements, ...]:
    """The blocks of `canonical_partition` of non-empty elements whose
    multiplicity m the caller already has: block i is the slice of the
    sorted elements v with i*m <= v < (i+1)*m (so a multiple of m, which no
    gapset holds, lands in the block it starts)."""
    blocks = []
    start = 0
    for i in range(1, -(-(elems[-1] + 1) // m) + 1):
        end = bisect_left(elems, i * m, start)
        blocks.append(elems[start:end])
        start = end
    return tuple(blocks)


def is_m_set(candidate: Iterable[int], m: int) -> bool:
    """True iff the set contains all of [1, m-1] and no multiple of m.

    Accepts any m >= 1 (m = 1 forces the empty set, m = 2 allows odd sets);
    the interesting regime is m > 2.  The candidate is normalized and
    tested member by member, so the cost follows its length, never the size
    of its largest member or of m.
    """
    elems = as_candidate(candidate)
    if m < 1:
        raise ValueError("m must be >= 1")
    return (
        len(elems) >= m - 1
        and all(v == i for i, v in zip(range(1, m), elems))
        and all(v % m for v in elems)
    )


def _m_set(elems: Elements, mask: int, m: int) -> bool:
    """`is_m_set` of a normalized candidate with its `element_mask`."""
    if m < 1:
        raise ValueError("m must be >= 1")
    low = (1 << m) - 2
    if mask & low != low:
        return False
    # bits m, 2m, ..., up to the largest member: the base-2**m repunit
    # 1 + 2**m + 2**(2m) + ... less its bit 0
    n = (elems[-1] if elems else 0) // m
    multiples = ((1 << (m * (n + 1))) - 1) // ((1 << m) - 1) - 1
    return mask & multiples == 0


def is_m_extension(candidate: Iterable[int], m: int) -> bool:
    """True iff the set is an m-set whose range blocks grow only by +m steps.

    Blocks are forced by value ranges: block i is the part of the set in
    [i*m + 1, (i+1)*m - 1], and each block i+1 must be contained in m +
    block i.  Every gapset with multiplicity m passes (its canonical
    partition is the witness).  The candidate is normalized and tested
    member by member: an m-set whose every member v > m has v - m in the
    set.
    """
    elems = as_candidate(candidate)
    members = set(elems)
    return is_m_set(elems, m) and all(v - m in members for v in elems if v > m)


def _m_extension(elems: Elements, mask: int, m: int) -> bool:
    """`is_m_extension` of a normalized candidate with its `element_mask`:
    an m-set with no member v > m whose v - m is missing."""
    return _m_set(elems, mask, m) and not mask & ~((2 << m) - 1) & ~(mask << m)
