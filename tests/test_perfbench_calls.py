"""The calls `perfbench/layers.py` makes into the package still work.

`perfbench/` times some internals by name and call shape: the provider,
the four single-suite wrappers, the `Gapset` filters (both keep the
gapsets whose maximum gap is exactly kappa), the maps layer's calls,
`enumerate_gapsets(workers=2)` (one process walks the tree; the keyword
is not read) and the disk cache.  Until the benchmark times `run_suites` and the CLI replay instead, these
must keep running; ROADMAP item 5a, which changes the harness, updates
this guard with it.  Under --run-slow the benchmark's own self-check runs
too.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from gapsets import core, enumeration, maps, tally, verification
from gapsets.enumeration import (
    cache_load,
    cache_store,
    enumerate_gapsets,
    filter_gapsets,
    filter_pure_sparse,
)
from gapsets.maps import narrow_max_gap, verify_bijection
from gapsets.verification import memoized_provider, run_suites

from expected_counts import COUNTS_BY_KAPPA

ROOT = Path(__file__).parents[1]
LAYERS = ROOT / "perfbench" / "layers.py"
MODULES = {m.__name__.rsplit(".", 1)[1]: m for m in (core, enumeration, maps, tally, verification)}
SUITES = ("core", "sparse", "phi", "bijection")


def test_every_name_the_benchmark_needs_exists():
    needed = re.findall(r'need\((\w+), f?"([^"]+)"\)', LAYERS.read_text())
    names = {(module, name.replace("{name}", suite)) for module, name in needed for suite in SUITES}
    assert {("verification", "memoized_provider"), ("verification", "phi_suite")} < names
    assert [pair for pair in sorted(names) if not hasattr(MODULES[pair[0]], pair[1])] == []


def test_the_provider_lists_each_genus():
    by_genus = memoized_provider()
    for g in range(7):
        assert by_genus(g) == list(enumerate_gapsets(g))
        assert by_genus(g) is by_genus(g)


@pytest.mark.parametrize("name", SUITES)
def test_each_suite_wrapper_is_its_run(name):
    suite = getattr(verification, f"{name}_suite")
    assert suite(6, memoized_provider()) == run_suites([name], 6)[0]


def test_the_filter_and_maps_layer_calls_run():
    # the calls of `filter_layer` and `maps_layer`, on the bijection
    # families (2g <= 3k <= 3g) to genus 6
    by_genus = memoized_provider()
    for g in range(7):
        for k in range(-(-2 * g // 3), g + 1):
            kept = list(filter_gapsets(by_genus(g), kappa=k, pure=True))
            assert len(kept) == COUNTS_BY_KAPPA[g][k]
            targets = list(filter_pure_sparse(by_genus(g + 1), k + 1))
            assert len(targets) == COUNTS_BY_KAPPA[g + 1][k + 1]
            assert sorted(narrow_max_gap(h, k + 1) for h in targets) == kept
            assert verify_bijection(g, k, by_genus=by_genus).bijective


def test_the_pool_and_the_cache_still_run(tmp_path):
    single = list(enumerate_gapsets(6))
    assert list(enumerate_gapsets(6, workers=2)) == single
    assert cache_store(6, single, tmp_path).exists()
    assert cache_load(6, tmp_path) == single


@pytest.mark.slow
@pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2,
    reason="perfbench/selfcheck.py fails on 1 CPU: its pool layer reports no "
    "metric there, and a missing per-layer metric counts as a failure (open FOUND: in CHANGES.md)",
)
def test_the_benchmark_self_check_passes():
    # about 16 s on 2 CPUs: catches a package change that breaks a call the
    # harness makes, which the name checks above cannot see
    proc = subprocess.run(
        [sys.executable, "perfbench/selfcheck.py"], cwd=ROOT, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert "self-check passed" in proc.stdout
