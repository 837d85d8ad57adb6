#!/usr/bin/env python3
"""Alternated A/B runs of the benchmark: a parent revision against a change.

Each side is exported into its own temporary directory: a revision with
`git archive`, and with no --change the working tree, copied without
`.git` and `__pycache__`.  Pair i runs both sides' `perfbench/run.py
--workload W --seed i --seconds S --trace 0`, unchanged, where S is
BENCHMARK.json's run_seconds, one run at a time, with
PYTHONDONTWRITEBYTECODE=1 so that no side compiles for the other; the
parent runs first when i is odd.  The results file holds one record per
side per pair (`runs`), and per workload and end-to-end metric of
BENCHMARK.json the two medians, the parent's IQR (quartiles by
statistics.quantiles(method='inclusive')), how many pairs the change
won and `gain_met`: whether the change is better in at least 9 of 10
pairs (and at least 10 pairs ran), and its median is better than the
parent's by more than the parent's IQR.  `claim_met` is that rule on the
first workload's wall_s; a change that claims another metric cites that
metric's `gain_met`.

Usage: python3 scripts/ab.py --parent REV [--change REV] --workload W
    [--workload W ...] --pairs N --out FILE [--what TEXT]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
MIN_PAIRS = 10  # a claim needs at least 9 of 10 pairs
CLAIM = "wall_s"
COMMAND = "python3 perfbench/run.py --workload W --seed S --seconds {seconds} --trace 0"


def benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def directions() -> dict[str, str]:
    """Each end-to-end metric of BENCHMARK.json and which way is better."""
    return {metric["name"]: metric["better"] for metric in benchmark()["end_to_end"]}


def run_seconds() -> float:
    """The length of one run, as BENCHMARK.json fixes it."""
    return benchmark()["run_seconds"]


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = quantiles(values, n=4, method="inclusive")
    return q3 - q1


def wins(parent: list[float], change: list[float], better: str) -> int:
    """The pairs in which the change is strictly better; a tie is no win."""
    if better == "lower":
        return sum(c < p for p, c in zip(parent, change))
    return sum(c > p for p, c in zip(parent, change))


def claim_met(parent: list[float], change: list[float], better: str) -> bool:
    """Better in at least 9 of 10 pairs, by more than the parent's IQR."""
    n = len(parent)
    gain = median(parent) - median(change)
    if better != "lower":
        gain = -gain
    return n >= MIN_PAIRS and 10 * wins(parent, change, better) >= 9 * n and gain > iqr(parent)


def side_values(runs: list[dict], workload: str, metric: str) -> tuple[list, list]:
    """The parent's and the change's values of one metric, in pair order,
    over the pairs in which both sides ran."""
    by_side = {side: {} for side in SIDES}
    for run in runs:
        if run["workload"] == workload:
            by_side[run["side"]][run["pair"]] = run[metric]
    pairs = sorted(by_side["parent"].keys() & by_side["change"].keys())
    return [by_side["parent"][p] for p in pairs], [by_side["change"][p] for p in pairs]


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per workload, in order of first appearance: for each metric the two
    medians, the parent's IQR, the change's wins and whether they meet the
    gain rule of `claim_met`, and each side's failed commands."""
    summary = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        entry = {}
        for metric, way in better.items():
            parent, change = side_values(runs, workload, metric)
            entry[metric] = {
                "parent_median": round(median(parent), 4),
                "change_median": round(median(change), 4),
                "parent_iqr": round(iqr(parent), 4),
                "change_better_pairs": f"{wins(parent, change, way)} of {len(parent)}",
                "gain_met": claim_met(parent, change, way),
            }
        entry["failed"] = {
            side: sum(r["failed"] for r in runs if r["workload"] == workload and r["side"] == side)
            for side in SIDES
        }
        summary[workload] = entry
    return summary


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def export(rev: str | None, dest: Path) -> None:
    """Put one side's files into the empty directory dest."""
    if rev is None:
        shutil.copytree(
            ROOT, dest, dirs_exist_ok=True,
            ignore=shutil.ignore_patterns(".git", "__pycache__", ".perfbench-out"),
        )
        return
    archive = subprocess.Popen(["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {rev} failed")


def bench(copy: Path, workload: str, seed: int, seconds: float) -> dict:
    """One run of the copy's perfbench/run.py; its last stdout line."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=copy, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:])} in {copy} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the parent revision")
    parser.add_argument("--change", help="the change's revision (default: the working tree)")
    parser.add_argument("--workload", action="append", required=True,
                        help="a perfbench workload; give it more than once for several")
    parser.add_argument("--pairs", type=int, required=True, help="pairs per workload (>= 1)")
    parser.add_argument("--out", required=True, help="the results file to write")
    parser.add_argument("--what", default="", help="what the change is, for the results file")
    args = parser.parse_args(argv)
    better = directions()
    seconds = run_seconds()
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    revs = {"parent": git("rev-parse", "--verify", f"{args.parent}^{{commit}}"),
            "change": args.change and git("rev-parse", "--verify", f"{args.change}^{{commit}}")}
    result = {
        "what": (f"{args.what}: " if args.what else "") + (
            "perfbench/run.py --trace 0 runs, alternated pairs of the parent and the change "
            "(pair i runs the parent first when i is odd, both with seed i), each side from "
            "its own export with no __pycache__ and PYTHONDONTWRITEBYTECODE=1, one run at a "
            "time; quartiles are statistics.quantiles(method='inclusive')"
        ),
        "command": COMMAND.format(seconds=seconds),
        "parent": revs["parent"],
        "change": revs["change"] or "working tree",
        "machine": f"{os.cpu_count()}-CPU {platform.machine()} {platform.system()}, "
                   f"Python {platform.python_version()}",
        "seeds": {w: f"1-{args.pairs}" if args.pairs > 1 else "1" for w in args.workload},
        "claim": f"{args.workload[0]} {CLAIM}: {better[CLAIM]} in at least 9 of 10 "
                 "pairs, by more than the parent's IQR",
    }
    runs = []
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        copies = {side: Path(tmp, side) for side in SIDES}
        for side, copy in copies.items():
            copy.mkdir()
            export(revs[side], copy)
        for workload in args.workload:
            for pair in range(1, args.pairs + 1):
                for side in SIDES if pair % 2 else SIDES[::-1]:
                    out = bench(copies[side], workload, pair, seconds)
                    runs.append({
                        "workload": workload, "pair": pair, "side": side,
                        "attempted": out["attempted"], "failed": out["failed"],
                        **{m: round(out["metrics"][m]["value"], 6) for m in better},
                    })
                print(f"# {workload} pair {pair} of {args.pairs} done", file=sys.stderr)
    parent, change = side_values(runs, args.workload[0], CLAIM)
    result["claim_met"] = claim_met(parent, change, better[CLAIM])
    result["summary"] = summarize(runs, better)
    result["runs"] = runs
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps({"claim_met": result["claim_met"],
                      "summary": result["summary"][args.workload[0]][CLAIM]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
