"""Independent test oracles for the enumeration and the invariants.

Brute force filters every genus-sized subset of [1, 2g - 1] with its own
closure test, `split_witness`, so it shares no search or validation code
with the package it checks: only the `Gapset` wrapper of the elements it
found.  The tests' reference validation reads its witness from the same
loop.

The scan oracles `multiplicity`, `conductor` and `kappa_and_alpha` each
read their invariants off a `Gapset`'s elements in their own scan, apart
from the package's one-loop `core._invariants`; `invariants` builds the
7-tuple of `_invariants` from them.  They are the oracle that the one scan
is checked against, the expected kappa and alpha of the enumeration, map
and verify tests, and the reference depth of the map tests.  The package
defines no `multiplicity` or `conductor`, and a test pins that; its
`kappa_and_alpha` is a view of the one scan, tested as a public function.
"""

from itertools import combinations
from typing import Iterator, Optional

from gapsets.core import Gapset
from gapsets.enumeration import ResourceLimitError

BRUTE_FORCE_MAX_GENUS = 12


def split_witness(elements: tuple[int, ...]) -> Optional[tuple[int, int, int]]:
    """The first split (z, x, z - x) of a member z, with 1 <= x <= z - x and
    neither part in the set, in order of z and then x; None if there is none."""
    members = set(elements)
    for z in elements:
        for x in range(1, z // 2 + 1):
            if x not in members and z - x not in members:
                return z, x, z - x
    return None


def is_gapset(elements: tuple[int, ...]) -> bool:
    """Every split z = x + y (x, y >= 1) of a member z has x or y in the set."""
    return split_witness(elements) is None


def brute_force_gapsets(genus: int) -> Iterator[Gapset]:
    """Every gapset of the genus, in lexicographic order, by filtering subsets.

    Every non-empty gapset contains 1 and lies in [1, 2g - 1], so 1 is fixed
    and the other elements range over [2, 2g - 1].  Guarded: the subset
    count explodes past genus 12, and a negative genus raises ValueError.
    """
    if genus < 0:
        raise ValueError("genus must be >= 0")
    if genus > BRUTE_FORCE_MAX_GENUS:
        raise ResourceLimitError(f"brute force is limited to genus <= {BRUTE_FORCE_MAX_GENUS}")
    if genus == 0:
        yield Gapset(())
        return
    for rest in combinations(range(2, 2 * genus), genus - 1):
        elements = (1, *rest)
        if is_gapset(elements):
            yield Gapset(elements)


def multiplicity(g: Gapset) -> int:
    """Least positive integer not in the gapset."""
    for i, v in enumerate(g.elements, start=1):
        if v != i:
            return i
    return g.genus + 1


def conductor(g: Gapset) -> int:
    """Least integer c with every integer >= c outside the gapset."""
    return g.elements[-1] + 1 if g.elements else 0


def kappa_and_alpha(g: Gapset) -> tuple[int, Optional[int]]:
    """Maximum consecutive difference and the last (1-based) index attaining
    it: (0, None) for the empty gapset and (1, None) for {1}."""
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


def invariants(elements: tuple[int, ...]) -> tuple:
    """The 7-tuple of `core._invariants` (genus, multiplicity, conductor,
    frobenius, depth, kappa, alpha) of strictly increasing positive
    elements, from the three separate scans."""
    g = Gapset(elements)
    c, m = conductor(g), multiplicity(g)
    return (len(elements), m, c, c - 1, -(-c // m), *kappa_and_alpha(g))
