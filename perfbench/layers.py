"""The traced run: per-layer measurements of the gapsets package, in process.

Each round first replays the workload's commands through `cli.main`, once
plain and once with span-recording wrappers around the package's public
functions, which gives the tracing overhead and the span tree of a real
command.  It then times each layer's public functions under its own span,
at the sizes of the workload's LayerPlan.  Per-layer values are medians over
rounds.  Generators are drained inside their span, so no span covers time
spent by the caller of a generator; self times that the span tree cannot
separate (tally minus search, CLI minus search, filter and invariants) are
derived by subtracting separately timed layers, as each metric says.

A metric whose public function a later version deletes is reported with
value null and the reason, not as a failure.
"""

from __future__ import annotations

import io
import os
import shutil
import sys
from collections import Counter
from contextlib import redirect_stdout
from hashlib import sha256
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Any, Callable, Optional

import expected as X
from tracing import Tracer, duration
from workloads import KEEP_OUTPUT_CHARS, Command, Output, Workload, bijection_families

import gapsets.cli as cli
import gapsets.core as core
import gapsets.enumeration as enumeration
import gapsets.maps as maps
import gapsets.tally as tally
import gapsets.verification as verification

POOL_GENUS = 22  # the genus of the seed's pool and cache baselines
SUITES = ("core", "sparse", "phi", "bijection")

PER_LAYER_UNITS = {
    "enumeration.enumerate_s": "s",
    "enumeration.gapsets": "count",
    "enumeration.gapsets_per_s": "1/s",
    "enumeration.filter_s": "s",
    "enumeration.filter_tested": "count",
    "enumeration.filter_kept": "count",
    "enumeration.filter_kept_ratio": "ratio",
    "core.gapset_s": "s",
    "core.kappa_s": "s",
    "core.invariants_s": "s",
    "core.validate_s": "s",
    "tally.count_grid_s": "s",
    "tally.diagonal_s": "s",
    "tally.self_s": "s",
    "cli.enumerate_s": "s",
    "cli.format_self_s": "s",
    "cli.bytes_out": "bytes",
    "maps.widen_s": "s",
    "maps.narrow_s": "s",
    "maps.verify_bijection_s": "s",
    "maps.bijection_families": "count",
    **{f"verification.{name}_s": "s" for name in SUITES},
    "verification.provider_s": "s",
    "verification.checks": "count",
    "verification.checks_per_s": "1/s",
    "enumeration.pool_w2_s": "s",
    "enumeration.pool_speedup": "ratio",
    "enumeration.cache_store_s": "s",
    "enumeration.cache_load_s": "s",
    "enumeration.cache_bytes": "bytes",
    "enumeration.cache_load_vs_search": "ratio",
    "trace.untraced_s": "s",
    "trace.traced_s": "s",
    "trace.overhead_ratio": "ratio",
}

# Public functions wrapped in spans during the traced replay: (module, name
# looked up by the caller, span name).  cli imports its helpers by name, so
# they are patched where cli looks them up.
REPLAY_TARGETS = (
    (cli, "build_count_grid", "tally.build_count_grid"),
    (cli, "diagonal_sequence", "tally.diagonal_sequence"),
    (cli, "render_grid", "cli.render_grid"),
    (cli, "run_suites", "verification.run_suites"),
    *((verification, f"{name}_suite", f"verification.{name}_suite") for name in SUITES),
    (verification, "verify_bijection", "maps.verify_bijection"),
    (verification, "stabilization_check", "tally.stabilization_check"),
)


class Absent(Exception):
    """A public function a measurement needs no longer exists."""


def need(module: Any, name: str) -> Callable:
    fn = getattr(module, name, None)
    if fn is None:
        raise Absent(f"{module.__name__}.{name} no longer exists")
    return fn


class Sink(io.TextIOBase):
    """Text stream that counts, hashes and (while small) keeps what it gets."""

    def __init__(self) -> None:
        self.chars = 0
        self.lines = 0
        self.digest = sha256()
        self.kept: Optional[list[str]] = []

    def write(self, s: str) -> int:
        self.chars += len(s)
        self.lines += s.count("\n")
        self.digest.update(s.encode())
        if self.kept is not None:
            self.kept.append(s)
            if self.chars > KEEP_OUTPUT_CHARS:
                self.kept = None
        return len(s)

    def output(self, returncode: int) -> Output:
        text = None if self.kept is None else "".join(self.kept)
        return Output(returncode, self.lines, self.digest.hexdigest(), text)


def _flag(argv: tuple[str, ...], flag: str) -> Optional[int]:
    return int(argv[argv.index(flag) + 1]) if flag in argv else None


class TracedRun:
    def __init__(self, workload: Workload, tracer: Tracer) -> None:
        self.workload = workload
        self.plan = workload.plan
        self.tracer = tracer
        self.samples: dict[str, list[float]] = {name: [] for name in PER_LAYER_UNITS}
        self.absent: dict[str, str] = {}
        self.unpatched: list[str] = []
        self.checks = 0
        self.failed = 0
        self.genus_time: dict[int, float] = {}
        self.lists: dict[int, list] = {}
        self.filter_time: dict[tuple[int, int], float] = {}

    # -- bookkeeping -------------------------------------------------------

    def expect(self, ok: bool, what: str) -> None:
        self.checks += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)

    def put(self, name: str, value: float) -> None:
        self.samples[name].append(value)

    def step(self, prefix: str | tuple[str, ...], fn: Callable[..., Any], *args: Any) -> Any:
        """Run one layer measurement; a missing public function marks the
        metrics whose names start with `prefix` absent instead of failing."""
        try:
            return fn(*args)
        except Absent as exc:
            for name in PER_LAYER_UNITS:
                if name.startswith(prefix):
                    self.absent.setdefault(name, str(exc))
            return None

    def run_cli(self, command: Command) -> Sink:
        sink = Sink()
        with redirect_stdout(sink):
            rc = cli.main(list(command.argv))
        problems = command.problems(sink.output(rc))
        self.expect(not problems, f"{' '.join(command.argv)}: {'; '.join(problems)}")
        return sink

    def search(self, genus: int) -> None:
        """Drain enumerate_gapsets once, keeping nothing, and time it."""
        enumerate_gapsets = need(enumeration, "enumerate_gapsets")
        with self.tracer.span("enumeration.enumerate_gapsets", genus=genus) as rec:
            count = sum(1 for _ in enumerate_gapsets(genus))
        self.genus_time[genus] = duration(rec)
        self.expect(count == X.GAPSET_COUNTS[genus], f"genus {genus} count {count}")

    def searched(self, genera) -> float:
        """Search time of the given genera, searching those not timed yet."""
        for g in set(genera):
            if g not in self.genus_time:
                self.search(g)
        return sum(self.genus_time[g] for g in genera)

    def gapsets(self, genus: int) -> list:
        """All gapsets of one genus as a list, built once per round outside
        any timed layer (holding them costs garbage-collector time that a
        drained stream does not pay)."""
        if genus not in self.lists:
            enumerate_gapsets = need(enumeration, "enumerate_gapsets")
            with self.tracer.span("enumeration.materialize", genus=genus):
                self.lists[genus] = list(enumerate_gapsets(genus))
        return self.lists[genus]

    # -- layers ------------------------------------------------------------

    def replay_once(self, traced: bool) -> float:
        """The workload's commands through cli.main; with `traced`, the
        public functions in REPLAY_TARGETS record spans."""
        if not traced:
            with self.tracer.span("replay.untraced") as rec:
                for command in self.workload.commands:
                    self.run_cli(command)
            return duration(rec)
        with self.tracer.patched(REPLAY_TARGETS) as missing:
            with self.tracer.span("replay.traced") as rec:
                for command in self.workload.commands:
                    with self.tracer.span("cli.main", argv=" ".join(command.argv)):
                        self.run_cli(command)
        self.unpatched = missing
        return duration(rec)

    def replay(self, traced_first: bool) -> None:
        if traced_first:
            t, u = self.replay_once(True), self.replay_once(False)
        else:
            u, t = self.replay_once(False), self.replay_once(True)
        self.put("trace.untraced_s", u)
        self.put("trace.traced_s", t)
        self.put("trace.overhead_ratio", t / u)

    def enumerate_layer(self) -> None:
        genera = self.plan.genera
        with self.tracer.span("enumeration.enumerate") as rec:
            for g in genera:
                self.search(g)
        total = sum(X.GAPSET_COUNTS[g] for g in genera)
        self.put("enumeration.enumerate_s", duration(rec))
        self.put("enumeration.gapsets", total)
        self.put("enumeration.gapsets_per_s", total / duration(rec))

    def filter_layer(self) -> None:
        filter_gapsets = need(enumeration, "filter_gapsets")
        cases = self.plan.filter_cases
        lists = {g: self.gapsets(g) for g, _ in cases}
        tested = kept = 0
        with self.tracer.span("enumeration.filter") as rec:
            for g, k in cases:
                with self.tracer.span("enumeration.filter_gapsets", genus=g, kappa=k) as case:
                    found = list(filter_gapsets(lists[g], kappa=k, pure=True))
                self.filter_time[(g, k)] = duration(case)
                self.expect(len(found) == X.CELLS[g].get(k, 0), f"filter g={g} k={k}")
                tested += len(lists[g])
                kept += len(found)
        self.put("enumeration.filter_s", duration(rec))
        self.put("enumeration.filter_tested", tested)
        self.put("enumeration.filter_kept", kept)
        self.put("enumeration.filter_kept_ratio", kept / tested)

    def core_layer(self) -> None:
        Gapset = need(core, "Gapset")
        kappa_and_alpha = need(core, "kappa_and_alpha")
        invariants = need(core, "invariants")
        validate_gapset = need(core, "validate_gapset")
        g = self.plan.core_genus
        tuples = [x.elements for x in self.gapsets(g)]
        span = self.tracer.span
        with span("core.Gapset", genus=g) as rec:
            fresh = [Gapset(e) for e in tuples]
        self.put("core.gapset_s", duration(rec))
        with span("core.kappa_and_alpha", genus=g) as rec:
            kappas = [kappa_and_alpha(x)[0] for x in fresh]
        self.put("core.kappa_s", duration(rec))
        self.expect(Counter(kappas) == Counter(X.CELLS[g]), f"kappa counts at genus {g}")
        with span("core.invariants", genus=g) as rec:
            for x in fresh:
                invariants(x)
        self.put("core.invariants_s", duration(rec))
        with span("core.validate_gapset", genus=g) as rec:
            valid = sum(isinstance(validate_gapset(e), Gapset) for e in tuples)
        self.put("core.validate_s", duration(rec))
        self.expect(valid == len(tuples), f"validate_gapset at genus {g}")

    def tally_layer(self) -> None:
        build_count_grid = need(tally, "build_count_grid")
        diagonal_sequence = need(tally, "diagonal_sequence")
        max_genus, max_w = self.plan.tally
        with self.tracer.span("tally.build_count_grid", max_genus=max_genus) as rec:
            grid = build_count_grid(max_genus)
        grid_s = duration(rec)
        for g in range(max_genus + 1):
            row = {k: n for (gg, k), n in grid.cells.items() if gg == g}
            self.expect(row == X.CELLS[g], f"count grid row {g}")
        with self.tracer.span("tally.diagonal_sequence", max_w=max_w) as rec:
            seq = diagonal_sequence(max_w)
        diag_s = duration(rec)
        self.expect(list(seq.terms) == X.DIAGONAL_TERMS[: max_w + 1], "diagonal terms")
        search_s = self.searched(range(max_genus + 1)) + self.searched(
            [3 * w for w in range(max_w + 1)]
        )
        self.put("tally.count_grid_s", grid_s)
        self.put("tally.diagonal_s", diag_s)
        self.put("tally.self_s", grid_s + diag_s - search_s)

    def cli_layer(self) -> None:
        invariants_s = self.samples["core.invariants_s"]
        out_chars = 0
        below = 0.0  # search, filter and (json) invariants inside the CLI time
        with self.tracer.span("cli.enumerate") as rec:
            for command in self.plan.cli:
                with self.tracer.span("cli.main", argv=" ".join(command.argv)):
                    out_chars += self.run_cli(command).chars
        for command in self.plan.cli:
            genus, kappa = _flag(command.argv, "--genus"), _flag(command.argv, "--kappa")
            below += self.searched([genus])
            if kappa is not None:
                below += self.filter_time[(genus, kappa)]
            if "json" in command.argv:
                if genus != self.plan.core_genus:
                    raise ValueError("a JSON cli command must use the plan's core genus")
                if not invariants_s:
                    raise Absent("cli.format_self_s needs core.invariants_s")
                below += invariants_s[-1]
        self.put("cli.enumerate_s", duration(rec))
        self.put("cli.format_self_s", duration(rec) - below)
        self.put("cli.bytes_out", out_chars)  # the output is ASCII

    def verification_layer(self) -> Callable:
        memoized_provider = need(verification, "memoized_provider")
        suites = {name: need(verification, f"{name}_suite") for name in SUITES}
        v = self.plan.verify_genus
        by_genus = memoized_provider()
        with self.tracer.span("verification.provider", max_genus=v + 1) as rec:
            for g in range(v + 2):
                by_genus(g)
        self.put("verification.provider_s", duration(rec))
        checks = 0
        suites_s = 0.0
        for name, suite in suites.items():
            with self.tracer.span(f"verification.{name}_suite", max_genus=v) as rec:
                report = suite(v, by_genus)
            self.put(f"verification.{name}_s", duration(rec))
            suites_s += duration(rec)
            checks += report.checks_run
            self.expect(not report.violations, f"suite {name}: {len(report.violations)} violations")
        self.expect(checks == X.VERIFY_CHECKS[v], f"verification checks {checks}")
        self.put("verification.checks", checks)
        self.put("verification.checks_per_s", checks / suites_s)
        return by_genus

    def maps_layer(self, by_genus: Optional[Callable]) -> None:
        if by_genus is None:
            raise Absent("the maps layer reads gapsets from verification.memoized_provider")
        widen_max_gap = need(maps, "widen_max_gap")
        narrow_max_gap = need(maps, "narrow_max_gap")
        verify_bijection = need(maps, "verify_bijection")
        filter_pure_sparse = need(enumeration, "filter_pure_sparse")
        v = self.plan.verify_genus
        families = bijection_families(v)
        with self.tracer.span("maps.widen_max_gap", max_genus=v) as rec:
            for g in range(v + 1):
                for x in by_genus(g):
                    widen_max_gap(x)
        self.put("maps.widen_s", duration(rec))
        targets = [(k + 1, list(filter_pure_sparse(by_genus(g + 1), k + 1))) for g, k in families]
        with self.tracer.span("maps.narrow_max_gap", max_genus=v + 1) as rec:
            for k1, family in targets:
                for h in family:
                    narrow_max_gap(h, k1)
        self.put("maps.narrow_s", duration(rec))
        with self.tracer.span("maps.verify_bijection", max_genus=v) as rec:
            for g, k in families:
                report = verify_bijection(g, k, by_genus=by_genus)
                self.expect(report.bijective, f"bijection g={g} k={k}")
        self.put("maps.verify_bijection_s", duration(rec))
        self.put("maps.bijection_families", len(families))

    def pool_layer(self) -> None:
        enumerate_gapsets = need(enumeration, "enumerate_gapsets")
        if len(os.sched_getaffinity(0)) < 2:
            raise Absent("fewer than 2 CPUs")
        search_s = self.searched([POOL_GENUS])
        single = self.gapsets(POOL_GENUS)
        try:
            stream = enumerate_gapsets(POOL_GENUS, workers=2)
        except TypeError as exc:
            raise Absent(f"enumerate_gapsets takes no workers argument: {exc}") from None
        with self.tracer.span("enumeration.pool", genus=POOL_GENUS, workers=2) as rec:
            found = list(stream)
        self.expect(found == single, "workers=2 output equals workers=1")
        self.put("enumeration.pool_w2_s", duration(rec))
        self.put("enumeration.pool_speedup", search_s / duration(rec))

    def cache_layer(self, out_dir: Path) -> None:
        cache_store = need(enumeration, "cache_store")
        cache_load = need(enumeration, "cache_load")
        search_s = self.searched([POOL_GENUS])
        single = self.gapsets(POOL_GENUS)
        directory = out_dir / f"cache-{os.getpid()}"
        try:
            with self.tracer.span("enumeration.cache_store", genus=POOL_GENUS) as rec:
                path = cache_store(POOL_GENUS, single, directory)
            self.put("enumeration.cache_store_s", duration(rec))
            self.put("enumeration.cache_bytes", path.stat().st_size)
            with self.tracer.span("enumeration.cache_load", genus=POOL_GENUS) as rec:
                loaded = cache_load(POOL_GENUS, directory)
            self.put("enumeration.cache_load_s", duration(rec))
            self.put("enumeration.cache_load_vs_search", duration(rec) / search_s)
            self.expect(loaded == single, "cache round trip")
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    def round(self, index: int, out_dir: Path) -> None:
        self.genus_time.clear()
        self.lists.clear()
        self.filter_time.clear()
        with self.tracer.span("round", index=index):
            self.replay(traced_first=index % 2 == 1)
            self.step(("enumeration.enumerate_s", "enumeration.gapsets"), self.enumerate_layer)
            self.step("enumeration.filter", self.filter_layer)
            self.step("core.", self.core_layer)
            self.step("tally.", self.tally_layer)
            self.step("cli.", self.cli_layer)
            by_genus = self.step("verification.", self.verification_layer)
            self.step("maps.", self.maps_layer, by_genus)
            self.step("enumeration.pool", self.pool_layer)
            self.step("enumeration.cache", self.cache_layer, out_dir)
        self.lists.clear()

    def metrics(self) -> dict[str, dict[str, Any]]:
        out = {}
        for name, unit in PER_LAYER_UNITS.items():
            if self.samples[name]:
                out[name] = {"value": median(self.samples[name]), "unit": unit}
            else:
                reason = self.absent.get(name, "not measured")
                out[name] = {"value": None, "unit": unit, "absent": reason}
        return out


def traced_run(workload: Workload, seconds: float, out_dir: Path,
               run_id: str) -> tuple[TracedRun, Tracer]:
    """One round of layer measurements, then more while the next one is
    expected to end within `seconds`."""
    tracer = Tracer(run_id)
    run = TracedRun(workload, tracer)
    start = perf_counter()
    # The first pass through the commands grows the heap and fills lazy
    # state; it is not counted, so neither side of the overhead pays it.
    with tracer.span("warmup"):
        run.replay_once(False)
    index = 0
    while True:
        t0 = perf_counter()
        run.round(index, out_dir)
        index += 1
        now = perf_counter()
        if now + (now - t0) > start + seconds:
            return run, tracer
