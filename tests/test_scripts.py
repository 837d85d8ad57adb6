"""scripts/reproduce_tables.py checks its bounds before any walk, and its
stdout holds no wall time; scripts/time_cli.py reports one JSON line of
timings, or fails with the CLI; scripts/ab.py summarizes alternated pairs
by one rule, which every committed BENCH file's summary follows."""

import importlib.util
import json
import statistics
import subprocess
import sys
from itertools import count
from pathlib import Path

import pytest

from gapsets import tally

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "reproduce_tables.py"
TIME_CLI = SCRIPT.with_name("time_cli.py")
AB = SCRIPT.with_name("ab.py")


def load(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reproduce_tables = load(SCRIPT)
ab = load(AB)


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


def paired_runs(parent, change, metric="wall_s", workload="verify"):
    """Per-side run records of one workload, pair i holding the i-th values."""
    return [
        {"workload": workload, "pair": pair, "side": side, "attempted": 5, "failed": 0,
         metric: value}
        for pair, values in enumerate(zip(parent, change), 1)
        for side, value in zip(("parent", "change"), values)
    ]


def test_ab_summary_of_odd_pairs_counts_a_tie_as_no_win():
    runs = paired_runs([0.40, 0.41, 0.39], [0.35, 0.41, 0.36])
    runs[-1]["failed"] = 2
    assert ab.summarize(runs, {"wall_s": "lower"}) == {
        "verify": {
            "wall_s": {
                "parent_median": 0.4,
                "change_median": 0.36,
                "parent_iqr": 0.01,  # inclusive quartiles 0.395 and 0.405
                "change_better_pairs": "2 of 3",
                "gain_met": False,
            },
            "failed": {"parent": 0, "change": 2},
        }
    }


def test_ab_summary_of_even_pairs_where_higher_is_better():
    runs = paired_runs([1, 2, 3, 4], [0, 2, 5, 3], "gapsets_per_s", "grid")
    runs += paired_runs([7], [6], "gapsets_per_s", "stream")
    summary = ab.summarize(runs, {"gapsets_per_s": "higher"})
    assert list(summary) == ["grid", "stream"]
    assert summary["grid"]["gapsets_per_s"] == {
        "parent_median": 2.5, "change_median": 2.5, "parent_iqr": 1.5,
        "change_better_pairs": "1 of 4", "gain_met": False,
    }
    assert summary["stream"]["gapsets_per_s"] == {
        "parent_median": 7, "change_median": 6, "parent_iqr": 0.0,
        "change_better_pairs": "0 of 1", "gain_met": False,
    }


def test_ab_summary_meets_the_gain_rule_on_each_metric_and_workload():
    # the rule of claim_met, per workload and metric, not only the first
    # workload's wall_s: here only grid's first_line_s gains
    runs = paired_runs([0.40] * 10, [0.40] * 10, "wall_s", "grid")
    for run, value in zip(runs, [0.18, 0.16] * 9 + [0.18, 0.18]):
        run["first_line_s"] = value
    runs += paired_runs([0.30] * 10, [0.30] * 10, "wall_s", "stream")
    for run in runs[20:]:
        run["first_line_s"] = 0.1
    summary = ab.summarize(runs, {"wall_s": "lower", "first_line_s": "lower"})
    assert summary["grid"]["first_line_s"] == {
        "parent_median": 0.18, "change_median": 0.16, "parent_iqr": 0.0,
        "change_better_pairs": "9 of 10", "gain_met": True,
    }
    assert [summary[w][m]["gain_met"] for w in ("grid", "stream")
            for m in ("wall_s", "first_line_s")] == [False, True, False, False]


@pytest.mark.parametrize(
    "parent, change, met",
    [
        ([0.40] * 10, [0.36] * 10, True),
        ([0.40] * 10, [0.36] * 9 + [0.40], True),  # 9 of 10: the tie is no win
        ([0.40] * 10, [0.36] * 8 + [0.41] * 2, False),  # 8 of 10
        ([0.40] * 5, [0.36] * 5, False),  # fewer than 10 pairs show nothing
        # 10 of 10, but the medians differ by less than the parent's IQR (0.04)
        ([0.40, 0.44] * 5, [0.39, 0.43] * 5, False),
    ],
)
def test_ab_claim_needs_9_of_10_pairs_and_a_gain_past_the_iqr(parent, change, met):
    assert ab.claim_met(parent, change, "lower") is met
    assert ab.claim_met([-x for x in parent], [-x for x in change], "higher") is met


def committed_benches():
    """The BENCH files whose `runs` are per-side records: BENCH_32 onward."""
    root = SCRIPT.parent.parent
    return sorted(p for p in root.glob("BENCH_*.json") if int(p.stem.split("_")[1]) >= 32)


@pytest.mark.parametrize("path", committed_benches(), ids=lambda p: p.name)
def test_committed_bench_summaries_are_the_medians_of_their_runs(path):
    bench = json.loads(path.read_text())
    checked = 0
    for workload, metrics in bench["summary"].items():
        for metric in ab.directions():
            parent, change = ab.side_values(bench["runs"], workload, metric)
            assert len(parent) == len(change) > 0, (workload, metric)
            entry = metrics[metric]
            for side, values in (("parent", parent), ("change", change)):
                assert entry[f"{side}_median"] == pytest.approx(
                    statistics.median(values), rel=1e-3
                ), (workload, metric, side)
            if "gain_met" in entry:  # summaries written before the flag have none
                assert entry["gain_met"] is ab.claim_met(
                    parent, change, ab.directions()[metric]
                ), (workload, metric)
            checked += 1
    assert checked == 6 * len(bench["summary"])


def test_ab_digest_ties_an_export_to_its_files(tmp_path, monkeypatch):
    # two exports of one working tree hash alike, a file outside src/,
    # perfbench/ and BENCHMARK.json is not hashed, and a one-byte edit under
    # src/ changes the hash
    tree = tmp_path / "tree"
    for name, text in (("src/pkg/a.py", "x = 1\n"), ("src/pkg/__pycache__/a.pyc", "junk"),
                       ("perfbench/run.py", "pass\n"), ("BENCHMARK.json", "{}\n"),
                       ("README.md", "notes\n")):
        (tree / name).parent.mkdir(parents=True, exist_ok=True)
        (tree / name).write_text(text)
    monkeypatch.setattr(ab, "ROOT", tree)
    digests = []
    for name in ("one", "two"):
        (tmp_path / name).mkdir()
        ab.export(None, tmp_path / name)
        digests.append(ab.tree_digest(tmp_path / name))
    assert digests[0] == digests[1] and len(digests[0]) == 64
    (tmp_path / "one" / "README.md").write_text("other notes\n")
    assert ab.tree_digest(tmp_path / "one") == digests[0]
    (tmp_path / "two" / "src" / "pkg" / "a.py").write_text("x = 2\n")
    assert ab.tree_digest(tmp_path / "two") != digests[0]


@pytest.mark.slow
def test_ab_head_against_head_meets_no_claim(tmp_path, monkeypatch):
    # one short pair of the same commit on both sides: the runner exports,
    # runs and summarizes, and one pair is never enough for a claim; the
    # runs last 1 s instead of the benchmark's run_seconds
    if subprocess.run(["git", "rev-parse", "HEAD"], cwd=AB.parent, capture_output=True).returncode:
        pytest.skip("not a git checkout")
    monkeypatch.setattr(ab, "run_seconds", lambda: 1)
    out = tmp_path / "ab.json"
    assert ab.main(["--parent", "HEAD", "--change", "HEAD", "--workload", "grid",
                    "--pairs", "1", "--out", str(out)]) == 0
    bench = json.loads(out.read_text())
    assert bench["command"].endswith("--seconds 1 --trace 0")
    assert bench["claim_met"] is False
    assert bench["parent"] == bench["change"]
    assert bench["digests"]["parent"] == bench["digests"]["change"]
    assert [(r["pair"], r["side"], r["failed"]) for r in bench["runs"]] == [
        (1, "parent", 0), (1, "change", 0)
    ]
    assert set(bench["summary"]["grid"]) == set(ab.directions()) | {"failed"}
