#!/usr/bin/env python3
"""Rebuild the count tables from scratch and print them.

Defaults reproduce the full (genus x maximum-gap) grid up to genus 19 and
the diagonal sequence through w = 7.  Each diagonal term has its own walk
that visits only the gapsets that can end on the diagonal, so --max-w 10
(the genus-30 ceiling, t = 5248) takes about 0.2 s.

Both bounds are checked before any walk starts: a negative one exits 2,
and a genus past the ceiling (--max-genus, or 3 * --max-w for the
diagonal) exits 3 with a `resource limit:` line on stderr and no output.

Stdout holds only the tables, so two runs print the same bytes; the wall
time of each of the two builds goes to stderr.

Usage: python3 scripts/reproduce_tables.py [--max-genus 19] [--max-w 7]
"""

import argparse
import sys
from time import perf_counter

from gapsets import build_count_grid, stabilization_check
from gapsets.cli import EXIT_RESOURCE, render_grid
from gapsets.enumeration import ResourceLimitError, _check_genus
from gapsets.tally import diagonal_sequence, sequence_lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-genus", type=int, default=19)
    parser.add_argument("--max-w", type=int, default=7)
    args = parser.parse_args(argv)
    for flag, value in (("--max-genus", args.max_genus), ("--max-w", args.max_w)):
        if value < 0:
            parser.error(f"{flag} must be >= 0")
    try:
        _check_genus(args.max_genus)
        _check_genus(3 * args.max_w)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE

    t0 = perf_counter()
    grid = build_count_grid(args.max_genus)
    grid_time = perf_counter() - t0
    print(f"# count grid to genus {args.max_genus}: {grid_time:.2f}s", file=sys.stderr)
    print(f"# counts by genus and maximum gap (genus <= {args.max_genus}); "
          "* marks 2g = 3k")
    for line in render_grid(grid, markdown=True):
        print(line)

    stab = stabilization_check(grid)
    print(f"\n# stabilization below the diagonal: {stab.pairs_checked} pairs, "
          f"{len(stab.violations)} violations")
    for cell, a, b in stab.violations:
        print(f"  {cell}: {a} != {b}")

    t0 = perf_counter()
    terms = diagonal_sequence(args.max_w).terms
    seq_time = perf_counter() - t0
    print(f"# diagonal sequence to w = {args.max_w}: {seq_time:.2f}s", file=sys.stderr)
    print(f"\n# diagonal sequence through w = {args.max_w}")
    for line in sequence_lines(terms):
        print(line)
    return 0 if stab.ok else 1


if __name__ == "__main__":
    sys.exit(main())
