"""The kernel mutants of `mutants.py` are each caught by their test
selection.  Under --run-slow every mutant is applied to a temporary copy of
`src/` and its selection runs in a pytest subprocess against that copy;
the unmutated copy must pass every selection, so a caught mutant fails
because of its edit (about 30 s in all)."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gapsets"


def copy_src(tmp_path):
    src = tmp_path / "src"
    shutil.copytree(PACKAGE, src / "gapsets", ignore=shutil.ignore_patterns("__pycache__"))
    return src


def run_selection(src, select):
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *select],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
    )


def test_every_old_text_occurs_once():
    # a refactor that moves a mutant's code fails here, not silently later
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for mutant in MUTANTS:
        assert (PACKAGE / mutant.file).read_text().count(mutant.old) == 1, mutant.name
        assert mutant.new != mutant.old and mutant.select, mutant.name


@pytest.mark.slow
def test_the_unmutated_copy_passes_every_selection(tmp_path):
    selections = sorted({s for m in MUTANTS for s in m.select})
    proc = run_selection(copy_src(tmp_path), selections)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]


@pytest.mark.slow
@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_the_mutant_is_caught(mutant, tmp_path):
    src = copy_src(tmp_path)
    path = src / "gapsets" / mutant.file
    text = path.read_text()
    assert text.count(mutant.old) == 1
    path.write_text(text.replace(mutant.old, mutant.new))
    proc = run_selection(src, mutant.select)
    # exit code 1: the selection was collected, ran and failed (2 would be
    # an import or collection error, 5 an empty selection)
    assert proc.returncode == 1, proc.stdout[-3000:] + proc.stderr[-3000:]
