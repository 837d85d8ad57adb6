"""Command-line front end: enumeration, tables, maps, verification campaigns.

Exit codes: 0 success, 1 property violation (verify only), 2 bad flags,
3 resource limit exceeded, 4 invalid gapset input (map).

Each subcommand imports the modules it runs when it runs, so `enumerate`
loads only the search kernel of `enumeration`.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, Optional

from .enumeration import (
    GENUS_CEILING,
    ResourceLimitError,
    _check_genus,
    _iter_records,
)

if TYPE_CHECKING:
    from .tally import CountGrid

SUITE_NAMES = ("core", "sparse", "phi", "bijection")

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_RESOURCE = 3
EXIT_BAD_GAPSET = 4

NONNEGATIVE_FLAGS = ("genus", "max_genus", "max_w", "kappa", "depth")


CSV_HEADER = "gaps,genus,multiplicity,conductor,frobenius,depth,kappa,alpha"


# lines per `write` after the first kept line, which (like the CSV header)
# is written on its own so output starts as soon as it is found
BLOCK_LINES = 256


# format -> (element separator, text before the elements, template of the
# fields that depend on (genus, conductor, multiplicity), template of the
# rest, which depend on (kappa, alpha), text of an absent alpha).  With the
# head, the JSON templates give the bytes `json.dumps` gives for the
# record's dict (keys in this order).
LINE_FORMATS = {
    "text": (",", "", "", "\n", ""),
    "json": (
        ", ",
        '{"gaps": [',
        '], "genus": {g}, "multiplicity": {m}, "conductor": {c}, '
        '"frobenius": {f}, "depth": {d}, ',
        '"kappa": {k}, "alpha": {a}}}\n',
        "null",
    ),
    "csv": (" ", "", ",{g},{m},{c},{f},{d},", "{k},{a}\n", ""),
}


def cmd_enumerate(args, out) -> int:
    """Build each kernel record's line from its text label and two tables,
    and write the kept lines in blocks of BLOCK_LINES, one `write` per block.

    A line is head + label + mids[last][m] + ends[kappa][alpha or 0]: the
    text after the elements depends only on (last, m) and on (kappa, alpha).
    Both tables are filled before the walk, (2g + 2)(g + 2) + (g + 1)^2
    short strings however many lines there are.  m >= 1, so slot 0 of a
    `mids` row is never read; alpha is None or in [1, g - 1], so slot 0 of
    an `ends` row stands for None.  The label needs no slicing: 1 is every
    non-empty gapset's first element, so its piece carries no separator.

    `--pure` passes kappa to the record walk, which then yields only the
    records with maximum gap kappa and visits only the nodes that can still
    end with it."""
    genus, kappa, pure, depth_q = args.genus, args.kappa, args.pure, args.depth
    _check_genus(genus)
    sep, head, mid, end, absent = LINE_FORMATS[args.format]
    pieces = [sep + str(v) for v in range(2 * genus + 2)]
    pieces[1] = "1"
    # conductor by last element: last + 1, and 0 for the empty gapset
    conductors = [0, *range(2, 2 * genus + 3)]
    mids = [
        [""] + [mid.format(g=genus, m=m, c=c, f=c - 1, d=-(-c // m)) for m in range(1, genus + 2)]
        for c in conductors
    ]
    ends = [[end.format(k=k, a=a or absent) for a in range(genus + 1)] for k in range(genus + 1)]
    write = out.write
    if args.format == "csv":
        write(CSV_HEADER + "\n")
    block = []
    flush_at = 1
    # the pruned walk yields only kappa; the full walk is filtered to <= kappa
    limit = None if pure else kappa
    records = _iter_records(genus, pieces=pieces, kappa=kappa if pure else None)
    for label, last, m, k, a in records:
        if limit is not None and k > limit:
            continue
        if depth_q is not None and -(-conductors[last] // m) != depth_q:
            continue
        block.append(head + label + mids[last][m] + ends[k][a or 0])
        if len(block) >= flush_at:
            write("".join(block))
            block.clear()
            flush_at = BLOCK_LINES
    if block:
        write("".join(block))
    return EXIT_OK


def render_grid(grid: CountGrid, markdown: bool = True) -> list[str]:
    """The grid as markdown table lines, with `*` on the 2g = 3k cells, or
    as CSV lines; one row loop serves both."""
    ks = range(grid.max_genus + 1)
    if markdown:
        head, sep, end, marks = "| ", " | ", " |", grid.diagonal_marks
    else:
        head, sep, end, marks = "", ",", "", frozenset()

    def join(row: list[str]) -> str:
        return head + sep.join(row) + end

    lines = [join(["g\\k" if markdown else "g", *map(str, ks), "n_g"])]
    if markdown:
        lines.append("|" + " --- |" * (len(ks) + 2))
    for g in ks:
        row = [str(g)]
        for k in ks:
            n = grid.cells.get((g, k))
            row.append("" if n is None else f"{n}*" if (g, k) in marks else str(n))
        lines.append(join(row + [str(grid.row_sums[g])]))
    return lines


def cmd_table(args, out) -> int:
    from .tally import build_count_grid

    grid = build_count_grid(args.max_genus)
    for line in render_grid(grid, markdown=args.format == "markdown"):
        print(line, file=out)
    return EXIT_OK


def cmd_sequence(args, out) -> int:
    if args.which == "ng":
        from .tally import build_count_grid

        row_sums = build_count_grid(args.max_genus).row_sums
        print(",".join(map(str, row_sums.values())), file=out)
        return EXIT_OK
    from .tally import diagonal_terms, sequence_lines

    for line in sequence_lines(diagonal_terms(args.max_w)):
        print(line, file=out)
    return EXIT_OK


def cmd_map(args, out) -> int:
    from .core import GapsetRejection, invariants, validate_gapset
    from .maps import (
        PreconditionError,
        UnsupportedDepthError,
        classify_image,
        narrow_max_gap,
        shift_blocks,
        widen_max_gap,
    )

    try:
        checked = validate_gapset(int(tok) for tok in args.gapset.split(",") if tok.strip())
    except ValueError as exc:
        print(f"bad --gapset value: {exc}", file=sys.stderr)
        return EXIT_BAD_GAPSET
    if isinstance(checked, GapsetRejection):
        print(f"not a gapset: witness {tuple(checked)}", file=out)
        return EXIT_BAD_GAPSET
    g = checked
    rec = invariants(g)
    print("gapset: " + ",".join(map(str, g.elements)), file=out)
    print(
        f"genus={rec.genus} multiplicity={rec.multiplicity} "
        f"conductor={rec.conductor} frobenius={rec.frobenius} "
        f"depth={rec.depth} kappa={rec.kappa} "
        f"alpha={'-' if rec.alpha is None else rec.alpha}",
        file=out,
    )
    try:
        if args.op == "phi":
            image = widen_max_gap(g)
            print("phi: " + ",".join(map(str, image.elements)), file=out)
            print(f"classification: {image.classification}", file=out)
            if rec.depth <= 3:
                shifted = shift_blocks(g)
                print("sigma: " + ",".join(map(str, shifted)), file=out)
        elif args.op == "sigma":
            shifted = shift_blocks(g)
            print("sigma: " + ",".join(map(str, shifted)), file=out)
            print(
                f"classification: {classify_image(shifted, rec.multiplicity + 1)}",
                file=out,
            )
        else:  # phi-inverse
            preimage = narrow_max_gap(g, args.kappa)
            print(
                "phi-inverse: " + ",".join(map(str, preimage.elements)), file=out
            )
            print("classification: gapset", file=out)
    except (PreconditionError, UnsupportedDepthError) as exc:
        print(f"cannot apply {args.op}: {exc}", file=sys.stderr)
        return EXIT_BAD_GAPSET
    return EXIT_OK


def cmd_verify(args, out) -> int:
    from .verification import run_suites

    names = list(SUITE_NAMES) if args.suite == "all" else [args.suite]
    reports = run_suites(names, args.max_genus)
    total_violations = 0
    for report in reports:
        print(
            f"suite {report.suite}: gapsets={report.gapsets_covered} "
            f"checks={report.checks_run} violations={len(report.violations)}",
            file=out,
        )
        for v in report.violations:
            print(
                f"  VIOLATION {v.check}: {','.join(map(str, v.elements))} {v.detail}",
                file=out,
            )
        total_violations += len(report.violations)
    print(
        f"total: suites={len(reports)} "
        f"gapsets={sum(r.gapsets_covered for r in reports)} "
        f"checks={sum(r.checks_run for r in reports)} "
        f"violations={total_violations}",
        file=out,
    )
    return EXIT_OK if total_violations == 0 else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gapsets",
        description="Enumerate gap sets of numerical semigroups and verify their structure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list all gapsets of one genus")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--kappa", type=int, help="filter by maximum gap")
    p.add_argument(
        "--pure",
        action="store_true",
        help="with --kappa: require the maximum gap to equal kappa exactly",
    )
    p.add_argument("--depth", type=int, help="filter by depth")
    p.add_argument("--format", choices=["json", "csv", "text"], default="text")

    p = sub.add_parser("table", help="counts by genus and maximum gap")
    p.add_argument("--max-genus", type=int, required=True)
    p.add_argument("--format", choices=["markdown", "csv"], default="markdown")

    p = sub.add_parser("sequence", help="count sequences")
    which = p.add_subparsers(dest="which", required=True)
    q = which.add_parser("ng", help="gapset counts by genus")
    q.add_argument("--max-genus", type=int, required=True)
    q = which.add_parser("gw", help="pure 2w-sparse gapsets of genus 3w")
    q.add_argument(
        "--max-w",
        type=int,
        required=True,
        help="the walk goes to genus 3w, so at most "
        f"{GENUS_CEILING // 3} under the genus-{GENUS_CEILING} ceiling",
    )

    p = sub.add_parser("map", help="apply a genus-raising map to one gapset")
    p.add_argument("--gapset", required=True, help="comma-separated elements")
    p.add_argument(
        "--op", choices=["phi", "sigma", "phi-inverse"], default="phi"
    )
    p.add_argument(
        "--kappa", type=int, help="expected maximum gap (phi-inverse only)"
    )

    p = sub.add_parser("verify", help="run the property suites")
    p.add_argument("--max-genus", type=int, required=True)
    p.add_argument(
        "--suite", choices=list(SUITE_NAMES) + ["all"], default="all"
    )

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "enumerate" and args.pure and args.kappa is None:
        parser.error("--pure requires --kappa")
    if args.command == "map" and args.op == "phi-inverse" and args.kappa is None:
        parser.error("--op phi-inverse requires --kappa")
    if args.command == "map" and args.op != "phi-inverse" and args.kappa is not None:
        parser.error(f"--kappa is for --op phi-inverse only, not --op {args.op}")
    for name in NONNEGATIVE_FLAGS:
        value = getattr(args, name, None)
        if value is not None and value < 0:
            parser.error(f"--{name.replace('_', '-')} must be >= 0")
    handlers = {
        "enumerate": cmd_enumerate,
        "table": cmd_table,
        "sequence": cmd_sequence,
        "map": cmd_map,
        "verify": cmd_verify,
    }
    try:
        return handlers[args.command](args, sys.stdout)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
