#!/usr/bin/env python3
"""Fast self-check of the benchmark (about a minute on 2 CPUs).

Run from the repository root:  python3 perfbench/selfcheck.py

It confirms that BENCHMARK.json keeps to the benchmark's contract and names
the same metrics and units the code reports; that one untraced iteration of
every workload is correct and reports every end-to-end metric with its
unit; that the same iteration against deliberately wrong expected values
is reported as failed, for every kind of output check; and that one traced
round reports every per-layer metric with its unit, and a wrong expected
value there too counts as a failure.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import dataclasses
import json
import random
import re
import sys

import run
from workloads import WORKLOAD_NAMES, build

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
# A full measurement campaign makes 4 + 22 runs per workload and must end
# within this many seconds.
CAMPAIGN_BUDGET_S = 3420
RUN_OVERHEAD_S = 5  # start-up and the last iteration: about 2 s on 2 CPUs, plus margin

failures: list[str] = []


def require(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def check_contract(spec: dict) -> None:
    require(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                          "per_layer"}, "BENCHMARK.json has exactly the contract's keys")
    require(spec["command"][:2] == ["python3", "perfbench/run.py"], "command runs run.py")
    require(spec["paths"] == ["perfbench"], "paths is the benchmark directory")
    seconds = spec["run_seconds"]
    require(isinstance(seconds, int) and 1 <= seconds <= 60, "run_seconds is 1..60")
    n_runs = 4 + 22 * len(spec["workloads"])
    require(n_runs * (seconds + RUN_OVERHEAD_S) <= CAMPAIGN_BUDGET_S,
            f"{n_runs} runs of ~{seconds + RUN_OVERHEAD_S} s fit in {CAMPAIGN_BUDGET_S} s")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    require(len(names) == len(set(names)) and all(NAME.match(n) for n in names),
            "names are unique and well formed")
    require(all(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
                for w in spec["workloads"]), "each workload has a one-line why")
    require(all(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
                and m["better"] in ("lower", "higher") and UNIT.match(m["unit"])
                for m in spec["end_to_end"]), "end-to-end metrics are well formed")
    require(all(set(m) == {"name", "unit", "better"} and m["better"] in ("lower", "higher")
                and UNIT.match(m["unit"]) for m in spec["per_layer"]),
            "per-layer metrics are well formed")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    require(bool(setup) and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
            and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
            "setup_s is lower-is-better seconds with the largest bound")


def corrupt(expect):
    """The same expected value, deliberately wrong."""
    if isinstance(expect, dict):  # count grid
        return {**expect, "row_sums": expect["row_sums"][:-1] + [expect["row_sums"][-1] + 1]}
    if isinstance(expect, list):  # diagonal sequence lines
        w, term, *rest = expect[-1].split(",")
        return expect[:-1] + [",".join([w, str(int(term) + 1), *rest])]
    if isinstance(expect, tuple):  # (line count, sha256)
        return (expect[0], "0" * 64)
    return expect + 1  # verify checks total


def reported(metrics: dict, units: dict[str, str], positive: bool) -> bool:
    """Every metric is present with its unit and a (positive) number."""
    return set(metrics) == set(units) and all(
        metrics[n]["unit"] == u and isinstance(metrics[n]["value"], (int, float))
        and (metrics[n]["value"] > 0 or not positive)
        for n, u in units.items()
    )


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    check_contract(spec)
    if not (run.SRC / "gapsets" / "cli.py").is_file():
        require(False, "gapsets sources are present")
        return 1
    sys.path.insert(0, str(run.SRC))
    import layers

    require({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS,
            "BENCHMARK.json end_to_end matches the metrics run.py reports")
    require({m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER_UNITS,
            "BENCHMARK.json per_layer matches the metrics layers.py reports")
    require([w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES),
            "BENCHMARK.json names the workloads workloads.py defines")
    run.OUT_DIR.mkdir(exist_ok=True)

    for name in WORKLOAD_NAMES:
        workload = build(name, random.Random(0))
        result, _ = run.untraced_run(workload, random.Random(0), 0, min_iterations=1)
        require(result["correct"] and result["failed"] == 0
                and result["attempted"] == len(workload.commands),
                f"{name}: one untraced iteration is correct")
        require(reported(result["metrics"], run.END_TO_END_UNITS, positive=True),
                f"{name}: every end-to-end metric is reported with its unit")
        wrong = dataclasses.replace(workload, commands=tuple(
            dataclasses.replace(c, expect=corrupt(c.expect)) for c in workload.commands))
        result, _ = run.untraced_run(wrong, random.Random(0), 0, min_iterations=1)
        require(not result["correct"] and result["failed"] == result["attempted"],
                f"{name}: wrong expected values are reported as failures")

    workload = build("verify", random.Random(0))
    traced, tracer = layers.traced_run(workload, 0, run.OUT_DIR, "selfcheck")
    require(traced.failed == 0 and traced.checks > 0, "traced round is correct")
    require(reported(traced.metrics(), layers.PER_LAYER_UNITS, positive=False),
            "traced round reports every per-layer metric with its unit")
    require(bool(tracer.spans) and "replay.traced" in tracer.self_times(),
            "traced round records spans and self times")
    checks = layers.X.VERIFY_CHECKS
    saved = dict(checks)
    checks[workload.plan.verify_genus] += 1
    try:
        before = traced.failed
        traced.verification_layer()
        require(traced.failed == before + 1, "traced run reports a wrong expected value")
    finally:
        checks.update(saved)

    print(f"{len(failures)} failed" if failures else "self-check passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
