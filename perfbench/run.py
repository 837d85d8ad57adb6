#!/usr/bin/env python3
"""Benchmark of the gapsets package, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload grid|stream|verify --seed N \
        --seconds S --trace 0|1

--trace 0 drives the `gapsets` CLI as subprocesses, one at a time (a closed
loop with one client), with the default path: one worker, no cache.  It
repeats the workload's commands, in an order the seed permutes, for S
seconds and reports medians over iterations of the end-to-end metrics.
--trace 1 instead runs the in-process traced run of layers.py and reports
the per-layer metrics.  Every output is checked against frozen answers;
a wrong or failed command counts in `failed`.

Times are reference-scaled.  On a shared machine the CPU's speed drifts by
up to a third within minutes, which moves every raw time with it.  So a
fixed pure-Python reference program runs before the first iteration and
after each one; each iteration's times are multiplied by
REFERENCE_NOMINAL_S / (mean of the two reference runs around it).  The
reported seconds are those of a machine on which the reference takes
REFERENCE_NOMINAL_S; the raw times are in the results file.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  The environment, every sample and, when traced, the
spans, self times and tracing overhead are written to .perfbench-out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import signal
import subprocess
import sys
import tempfile
import uuid
from hashlib import sha256
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

from workloads import KEEP_OUTPUT_CHARS, WORKLOAD_NAMES, Output, build

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
SETUP_SAMPLES_PER_ITERATION = 3
MIN_ITERATIONS = 3
REFERENCE_CODE = "n = 0\nfor i in range(2_000_000):\n    n += i * i & 255\n"
REFERENCE_NOMINAL_S = 0.4  # about its wall time on a 2-CPU x86-64 VM, Python 3.11
RUN_LIMIT_S = 170  # a run that hangs is stopped before the 180 s limit

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "gapsets_per_s": "1/s",
    "peak_rss_mb": "MB",
    "first_line_s": "s",
    "setup_s": "s",
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def environment() -> dict:
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            git_sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": git_sha,
        "source_sha256": digest.hexdigest(),
        "loadavg_start": os.getloadavg(),
    }


def summary(values: list[float]) -> dict:
    """Median, quartiles, extremes and sample count of one metric."""
    q1, _, q3 = quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"n": len(values), "median": median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values)}


def setup_time(env: dict[str, str]) -> float:
    """Wall time of a fresh interpreter importing gapsets.cli."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import gapsets.cli"], env=env, cwd=ROOT, check=True)
    return perf_counter() - t0


def reference_time(env: dict[str, str]) -> float:
    """Wall time of the fixed reference program, which does not use gapsets."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", REFERENCE_CODE], env=env, cwd=ROOT, check=True)
    return perf_counter() - t0


def run_command(command, env: dict[str, str]):
    """Run one CLI command, reading its stdout from a pipe as it arrives."""
    with tempfile.TemporaryFile(dir=OUT_DIR) as errors:
        t0 = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "gapsets.cli", *command.argv],
            stdout=subprocess.PIPE, stderr=errors, env=env, cwd=ROOT,
        )
        first = None
        lines = 0
        digest = sha256()
        kept: bytearray | None = bytearray()
        try:
            fd = proc.stdout.fileno()
            while chunk := os.read(fd, 1 << 16):
                if first is None:
                    first = perf_counter() - t0
                lines += chunk.count(b"\n")
                digest.update(chunk)
                if kept is not None:
                    kept += chunk
                    if len(kept) > KEEP_OUTPUT_CHARS:
                        kept = None
            _, status, usage = os.wait4(proc.pid, 0)
            wall = perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        errors.seek(0)
        stderr = errors.read().decode(errors="replace")
    text = None if kept is None else kept.decode(errors="replace")
    out = Output(proc.returncode, lines, digest.hexdigest(), text)
    problems = command.problems(out)
    if problems:
        print(f"FAILED {' '.join(command.argv)}: {'; '.join(problems)}\n{stderr}",
              file=sys.stderr)
    sample = {
        "argv": " ".join(command.argv),
        "wall_s": wall,
        "first_byte_s": wall if first is None else first,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024,  # Linux reports kilobytes
        "returncode": proc.returncode,
        "problems": problems,
    }
    return out, sample


def untraced_run(workload, rng: random.Random, seconds: float,
                 min_iterations: int = MIN_ITERATIONS) -> tuple[dict, dict]:
    env = child_env()
    # The first import writes the bytecode cache, which users pay once, not
    # on every run; set-up samples are then spread over the whole run.
    setup_time(env)
    reference = [reference_time(env)]
    iterations = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        setup = [setup_time(env) for _ in range(SETUP_SAMPLES_PER_ITERATION)]
        order = list(workload.commands)
        rng.shuffle(order)
        samples = {c.argv: run_command(c, env)[1] for c in order}
        reference.append(reference_time(env))
        took = perf_counter() - t0
        iterations.append({
            "scale": REFERENCE_NOMINAL_S / ((reference[-2] + reference[-1]) / 2),
            "commands": list(samples.values()),
            "setup_s": setup,
            "wall_s": sum(s["wall_s"] for s in samples.values()),
            "cpu_s": sum(s["cpu_s"] for s in samples.values()),
            "rss_mb": max(s["rss_mb"] for s in samples.values()),  # largest child
            "first_line_s": [samples[c.argv]["first_byte_s"] for c in workload.first_line],
        })
        if len(iterations) >= min_iterations and perf_counter() + took > start + seconds:
            break
    raw = {key: [it[key] for it in iterations] for key in ("wall_s", "cpu_s", "rss_mb")}
    scaled = {key: [it[key] * it["scale"] for it in iterations] for key in ("wall_s", "cpu_s")}
    for key in ("first_line_s", "setup_s"):
        raw[key] = [t for it in iterations for t in it[key]]
        scaled[key] = [t * it["scale"] for it in iterations for t in it[key]]
    wall = median(scaled["wall_s"])
    values = {
        "wall_s": wall,
        "cpu_s": median(scaled["cpu_s"]),
        "gapsets_per_s": workload.gapsets / wall,
        "peak_rss_mb": median(raw["rss_mb"]),
        "first_line_s": median(scaled["first_line_s"]),
        "setup_s": median(scaled["setup_s"]),
    }
    commands = [s for it in iterations for s in it["commands"]]
    failed = sum(bool(s["problems"]) for s in commands)
    result = {
        "correct": failed == 0,
        "attempted": len(commands),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()},
    }
    detail = {
        "gapsets_per_iteration": workload.gapsets,
        "reference_s": reference,
        "scaled": {k: summary(v) for k, v in scaled.items()},
        "raw": {k: summary(v) for k, v in raw.items()},
        "iterations": iterations,
    }
    return result, detail


def traced_result(workload, seconds: float, seed: int) -> tuple[dict, dict]:
    import layers

    run_id = f"{workload.name}-{seed}-{uuid.uuid4().hex[:8]}"
    run, tracer = layers.traced_run(workload, seconds, OUT_DIR, run_id)
    spans_path = OUT_DIR / f"spans-{workload.name}-seed{seed}.jsonl"
    tracer.dump(spans_path)
    result = {
        "correct": run.failed == 0,
        "attempted": run.checks,
        "failed": run.failed,
        "metrics": run.metrics(),
    }
    detail = {
        "run_id": run_id,
        "spans_file": spans_path.name,
        "self_times": tracer.self_times(),
        "overhead": {k: run.samples[k] for k in
                     ("trace.untraced_s", "trace.traced_s", "trace.overhead_ratio")},
        "unpatched": run.unpatched,
        "samples": run.samples,
    }
    return result, detail


def _timeout(signum, frame):
    raise TimeoutError(f"run exceeded {RUN_LIMIT_S} s")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gapsets" / "cli.py").is_file():
        print(f"perfbench: no gapsets sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(exist_ok=True)
    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(RUN_LIMIT_S)
    env = environment()
    rng = random.Random(args.seed)
    workload = build(args.workload, rng)
    if args.trace:
        result, detail = traced_result(workload, args.seconds, args.seed)
    else:
        result, detail = untraced_run(workload, rng, args.seconds)
    signal.alarm(0)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "result": result, **detail}
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"# environment {json.dumps(env)}")
    for name, stats in detail.get("raw", {}).items():
        print(f"# raw {name} median = {stats['median']}")
    for name, metric in result["metrics"].items():
        print(f"# {name} = {metric['value']} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
