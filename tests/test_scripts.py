"""scripts/reproduce_tables.py checks its bounds before any walk, and its
stdout holds no wall time; scripts/time_cli.py reports one JSON line of
timings, or fails with the CLI."""

import importlib.util
import json
import subprocess
import sys
from itertools import count
from pathlib import Path

import pytest

from gapsets import tally

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "reproduce_tables.py"
TIME_CLI = SCRIPT.with_name("time_cli.py")
spec = importlib.util.spec_from_file_location("reproduce_tables", SCRIPT)
reproduce_tables = importlib.util.module_from_spec(spec)
spec.loader.exec_module(reproduce_tables)


@pytest.fixture
def walks_raise(monkeypatch):
    """Both walks the script reaches, patched under the names tally looks up."""

    def entered(*_args, **_kwargs):
        raise AssertionError("the tree search started")

    monkeypatch.setattr(tally, "_count_cells", entered)
    monkeypatch.setattr(tally, "_iter_records", entered)


@pytest.mark.parametrize("argv", [["--max-genus", "3"], ["--max-genus", "0", "--max-w", "1"]])
def test_patched_walks_are_reached(argv, walks_raise):
    # the control for the tests below: with valid bounds a walk starts
    with pytest.raises(AssertionError, match="the tree search started"):
        reproduce_tables.main(argv)


@pytest.mark.parametrize(
    "argv",
    [["--max-genus", "31"], ["--max-genus", "30", "--max-w", "11"], ["--max-w", "11"]],
)
def test_past_the_ceiling_exits_3_before_any_walk(argv, walks_raise, capsys):
    assert reproduce_tables.main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("resource limit: genus ") and "exceeds the ceiling 30" in err


@pytest.mark.parametrize("argv", [["--max-genus", "-1"], ["--max-w", "-1"]])
def test_negative_bound_exits_2_before_any_walk(argv, walks_raise, capsys):
    with pytest.raises(SystemExit) as err:
        reproduce_tables.main(argv)
    assert err.value.code == 2
    assert "must be >= 0" in capsys.readouterr().err


def test_small_run(capsys):
    assert reproduce_tables.main(["--max-genus", "6", "--max-w", "2"]) == 0
    out = capsys.readouterr().out
    assert "stabilization below the diagonal" in out
    assert out.endswith("w,g_w,ratio,cumulative\n0,1,-,1\n1,2,2.000,1.5\n2,5,2.500,1.6\n")


def test_stdout_is_byte_stable(monkeypatch, capsys):
    # a clock whose steps grow, so each build reads a new wall time
    ticks = (t * t for t in count())
    monkeypatch.setattr(reproduce_tables, "perf_counter", lambda: next(ticks))
    runs = []
    for _ in range(2):
        assert reproduce_tables.main(["--max-genus", "6", "--max-w", "2"]) == 0
        runs.append(capsys.readouterr())
    assert runs[0].out == runs[1].out
    assert runs[0].err != runs[1].err
    assert runs[0].err == "# count grid to genus 6: 1.00s\n# diagonal sequence to w = 2: 5.00s\n"


def time_cli(*argv):
    return subprocess.run(
        [sys.executable, str(TIME_CLI), *argv], capture_output=True, text=True, timeout=120
    )


def test_time_cli_prints_one_json_line():
    proc = time_cli("--runs", "2", "--", "enumerate", "--genus", "3")
    assert proc.returncode == 0, proc.stderr
    [line] = proc.stdout.splitlines()
    result = json.loads(line)
    assert set(result) == {
        "argv", "runs",
        "wall_s_median", "wall_s_q1", "wall_s_q3",
        "cpu_s_median", "cpu_s_q1", "cpu_s_q3",
        "maxrss_mb_median",
    }
    assert result["argv"] == ["enumerate", "--genus", "3"] and result["runs"] == 2
    for name in ("wall_s", "cpu_s"):
        q1, median, q3 = (result[f"{name}_{q}"] for q in ("q1", "median", "q3"))
        assert 0 < q1 <= median <= q3
    assert result["maxrss_mb_median"] > 1


def test_time_cli_fails_with_the_cli():
    proc = time_cli("--runs", "2", "--", "enumerate", "--genus", "-1")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "exit status 2" in proc.stderr
