#!/usr/bin/env python3
"""Time the gapsets CLI end to end: wall time, CPU time and peak RSS.

Runs `python -m gapsets.cli ARGS` N times, one after another, with
PYTHONPATH set to DIR (default: this checkout's `src`) and stdout sent to
/dev/null; stderr is passed through.  Each child is reaped with `wait4`,
which gives its CPU time (user + system) and `ru_maxrss`.  Prints one JSON
line: the median and quartiles of the wall and CPU seconds, and the median
peak RSS in MB.  Exits 1, with no JSON, at the first run that exits
non-zero.

Usage: python3 scripts/time_cli.py --runs N [--src DIR] -- ARGS...
"""

import argparse
import json
import os
import statistics
import sys
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"


def run_once(argv: list[str], env: dict[str, str]) -> tuple[int, float, float, float]:
    """One run: (exit status, wall s, CPU s, peak RSS MB)."""
    actions = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
    start = perf_counter()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = perf_counter() - start
    return (
        os.waitstatus_to_exitcode(status),
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024,  # kB on Linux
    )


def quartiles(values: list[float]) -> list[float]:
    """The first quartile, the median and the third quartile."""
    if len(values) < 2:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, required=True, help="number of runs (>= 1)")
    parser.add_argument("--src", default=str(SRC), help="directory put on PYTHONPATH")
    parser.add_argument("args", nargs=argparse.REMAINDER, help="-- then the CLI arguments")
    args = parser.parse_args(argv)
    cli_args = args.args[1:] if args.args[:1] == ["--"] else args.args
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    if not cli_args:
        parser.error("give the CLI arguments after --")
    env = dict(os.environ, PYTHONPATH=args.src)
    child = [sys.executable, "-m", "gapsets.cli", *cli_args]
    walls, cpus, rss = [], [], []
    for _ in range(args.runs):
        code, wall, cpu, peak = run_once(child, env)
        if code != 0:
            print(f"run failed with exit status {code}: {' '.join(cli_args)}", file=sys.stderr)
            return 1
        walls.append(wall)
        cpus.append(cpu)
        rss.append(peak)
    result = {"argv": cli_args, "runs": args.runs}
    for name, values in (("wall_s", walls), ("cpu_s", cpus)):
        q1, median, q3 = quartiles(values)
        result.update({f"{name}_median": median, f"{name}_q1": q1, f"{name}_q3": q3})
    result["maxrss_mb_median"] = statistics.median(rss)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
