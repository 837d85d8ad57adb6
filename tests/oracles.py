"""Independent test oracles for the enumeration and the invariants.

Brute force filters every genus-sized subset of [1, 2g - 1] with its own
closure test, so it shares no search or validation code with the package it
checks: only the `Gapset` wrapper of the elements it found.

The scan oracles `multiplicity` and `conductor` each read one invariant off
a `Gapset`'s elements in their own scan, apart from the package's one-loop
`core._invariants`; with `core.kappa_and_alpha` they are the oracle that
the one-loop scan is checked against, and the reference depth and
partition of the map tests.  The package does not define them, and a test
pins that.
"""

from itertools import combinations
from typing import Iterator

from gapsets.core import Gapset
from gapsets.enumeration import ResourceLimitError

BRUTE_FORCE_MAX_GENUS = 12


def is_gapset(elements: tuple[int, ...]) -> bool:
    """Every split z = x + y (x, y >= 1) of a member z has x or y in the set."""
    members = set(elements)
    for z in elements:
        for x in range(1, z // 2 + 1):
            if x not in members and z - x not in members:
                return False
    return True


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
