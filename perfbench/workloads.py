"""The benchmark's workloads: CLI commands, output checks and layer sizes.

Every workload runs `gapsets` commands whose answers are exact, so each
output is checked against frozen values (expected.py).  The enumeration is
exhaustive, so the seed only picks the stream filter's kappa and permutes
the command order; every choice has a recorded answer.

Sizes are scaled from the paper's full tables so that one iteration takes a
few seconds on a 2-CPU machine and a run holds several iterations:
  grid    table to genus 22 and the diagonal to w = 7 (genus 21).  Aggregate
          counting: search, Gapset objects and the kappa pass; tiny output.
  stream  every genus-21 gapset as JSON Lines, then the pure kappa filter
          over all 103,246 genus-22 gapsets as CSV.  Formatting, invariants
          and the filter; megabytes of output read from a pipe.
  verify  all four property suites to genus 16.  The same search, but small
          memoized lists re-read by validation, invariants and the maps.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Optional

import expected as X

STREAM_KAPPAS = (11, 12, 13)
# Sizes for a layer the workload's own commands do not reach; the traced run
# reports every layer on every workload.  Likewise grid and verify time the
# CLI layer on one JSON `enumerate` at their core genus.
REF_TALLY = (16, 5)
REF_VERIFY_GENUS = 12
WORKLOAD_NAMES = ("grid", "stream", "verify")
KEEP_OUTPUT_CHARS = 1 << 20  # larger outputs are checked by digest only


@dataclass(frozen=True)
class Output:
    returncode: int
    lines: int
    sha256: str
    text: Optional[str]  # kept only for outputs small enough to parse


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    check: Callable[[Output, Any], list[str]]
    expect: Any

    def problems(self, out: Output) -> list[str]:
        """Everything wrong with one run of this command, empty when correct."""
        if out.returncode != 0:
            return [f"exit code {out.returncode}"]
        try:
            return self.check(out, self.expect)
        except (ValueError, IndexError, KeyError, AttributeError) as exc:
            return [f"unparseable output: {exc!r}"]


@dataclass(frozen=True)
class LayerPlan:
    """What the traced run measures for one workload."""

    genera: tuple[int, ...]  # every enumeration the commands perform
    filter_cases: tuple[tuple[int, int], ...]  # (genus, kappa), pure filter
    core_genus: int  # genus swept by Gapset / kappa / invariants / validate
    tally: tuple[int, int]  # (max genus, max w)
    cli: tuple[Command, ...]  # `enumerate` commands timed through cli.main
    verify_genus: int


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]
    plan: LayerPlan
    # commands whose time to first output byte first_line_s measures
    first_line: tuple[Command, ...]

    @property
    def gapsets(self) -> int:
        """Gapsets the commands must enumerate: a constant of the workload."""
        return sum(X.GAPSET_COUNTS[g] for g in self.plan.genera)


def check_table(out: Output, expect: dict) -> list[str]:
    """Markdown count grid: row sums, every cell, and cells summing to rows."""
    problems = []
    rows = out.text.splitlines()[2:]
    if len(rows) != len(expect["row_sums"]):
        problems.append(f"{len(rows)} table rows, expected {len(expect['row_sums'])}")
    for line in rows:
        fields = [f.strip() for f in line.strip().strip("|").split("|")]
        g, total = int(fields[0]), int(fields[-1])
        cells = {k: int(v.rstrip("*")) for k, v in enumerate(fields[1:-1]) if v}
        if total != expect["row_sums"][g]:
            problems.append(f"row {g} sums to {total}, expected {expect['row_sums'][g]}")
        if sum(cells.values()) != total:
            problems.append(f"row {g} cells do not add up to {total}")
        if g in expect["cells"] and cells != expect["cells"][g]:
            problems.append(f"row {g} cells differ from the frozen counts")
    return problems


def check_sequence(out: Output, expect: list[str]) -> list[str]:
    lines = out.text.splitlines()
    if lines != expect:
        return [f"diagonal sequence differs: {lines[1:]} != {expect[1:]}"]
    return []


def check_digest(out: Output, expect: tuple[int, str]) -> list[str]:
    lines, sha = expect
    problems = []
    if out.lines != lines:
        problems.append(f"{out.lines} lines, expected {lines}")
    if out.sha256 != sha:
        problems.append(f"sha256 {out.sha256[:12]}.., expected {sha[:12]}..")
    return problems


def check_verify(out: Output, expect: int) -> list[str]:
    problems = []
    lines = out.text.splitlines()
    suites = [ln for ln in lines if ln.startswith("suite ")]
    for ln in suites:
        if not ln.endswith(" violations=0"):
            problems.append(f"violations reported: {ln}")
    total = dict(kv.split("=") for kv in lines[-1].removeprefix("total: ").split())
    if len(suites) != 4 or total["suites"] != "4":
        problems.append(f"{len(suites)} suite lines, expected 4")
    if total["violations"] != "0":
        problems.append(f"total violations={total['violations']}")
    if int(total["checks"]) != expect:
        problems.append(f"checks={total['checks']}, expected {expect}")
    return problems


def table_command(max_genus: int) -> Command:
    expect = {
        "row_sums": X.GAPSET_COUNTS[: max_genus + 1],
        "cells": {g: row for g, row in X.CELLS.items() if g <= max_genus},
    }
    return Command(("table", "--max-genus", str(max_genus)), check_table, expect)


def sequence_command(max_w: int) -> Command:
    expect = ["w,g_w,ratio,cumulative"] + [
        f"{w},{X.DIAGONAL_TERMS[w]},{X.DIAGONAL_RATIOS[w]},{X.DIAGONAL_CUMULATIVE[w]}"
        for w in range(max_w + 1)
    ]
    return Command(("sequence", "gw", "--max-w", str(max_w)), check_sequence, expect)


def enumerate_command(genus: int, kappa: Optional[int] = None) -> Command:
    """JSON Lines for the whole genus, or pure CSV at one kappa."""
    argv = ("enumerate", "--genus", str(genus))
    if kappa is None:
        argv += ("--format", "json")
    else:
        argv += ("--kappa", str(kappa), "--pure", "--format", "csv")
    return Command(argv, check_digest, X.STREAM_DIGESTS[argv])


def verify_command(max_genus: int) -> Command:
    argv = ("verify", "--max-genus", str(max_genus), "--suite", "all")
    return Command(argv, check_verify, X.VERIFY_CHECKS[max_genus])


def bijection_families(max_genus: int) -> list[tuple[int, int]]:
    """(genus, kappa) with 2g <= 3k <= 3g, as the bijection suite sweeps them."""
    return [
        (g, k)
        for g in range(max_genus + 1)
        for k in range(-(-2 * g // 3), g + 1)
    ]


def build(name: str, rng: random.Random) -> Workload:
    if name == "grid":
        max_genus, max_w = 22, 7
        plan = LayerPlan(
            genera=tuple(range(max_genus + 1)) + tuple(3 * w for w in range(max_w + 1)),
            filter_cases=tuple((3 * w, 2 * w) for w in range(max_w + 1)),
            core_genus=21,
            tally=(max_genus, max_w),
            cli=(enumerate_command(21),),
            verify_genus=REF_VERIFY_GENUS,
        )
        commands = (table_command(max_genus), sequence_command(max_w))
        first_line = commands[:1]
    elif name == "stream":
        kappa = rng.choice(STREAM_KAPPAS)
        commands = (enumerate_command(21), enumerate_command(22, kappa))
        first_line = commands
        plan = LayerPlan(
            genera=(21, 22),
            filter_cases=((22, kappa),),
            core_genus=21,
            tally=REF_TALLY,
            cli=commands,
            verify_genus=REF_VERIFY_GENUS,
        )
    elif name == "verify":
        max_genus = 16
        families = bijection_families(max_genus)
        plan = LayerPlan(
            # the bijection suite also reads genus max_genus + 1
            genera=tuple(range(max_genus + 2)),
            filter_cases=tuple(families) + tuple((g + 1, k + 1) for g, k in families),
            core_genus=max_genus,
            tally=REF_TALLY,
            cli=(enumerate_command(max_genus),),
            verify_genus=max_genus,
        )
        commands = (verify_command(max_genus),)
        first_line = commands
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOAD_NAMES}")
    return Workload(name, commands, plan, first_line)
