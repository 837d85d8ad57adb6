import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gapsets
import gapsets.cli as cli
from gapsets import (
    enumerate_gapsets, enumeration, invariants, maps, tally, validate_gapset, verification,
)
from gapsets.cli import BLOCK_LINES, CSV_HEADER, main

from expected_counts import (
    COUNTS_BY_KAPPA,
    GAPSET_COUNTS,
    GENUS_16_CSV,
    GENUS_16_JSON,
    GENUS_16_TEXT,
    STREAM_DIGESTS,
)
from tracing import traced_peak

GOLDEN = Path(__file__).parent / "golden" / "table3_g19.md"

VERIFY_REPORT_G12 = (
    "suite core: gapsets=1413 checks=18358 violations=0\n"
    "suite sparse: gapsets=1413 checks=7484 violations=0\n"
    "suite phi: gapsets=1413 checks=9910 violations=0\n"
    "suite bijection: gapsets=292 checks=141 violations=0\n"
    "total: suites=4 gapsets=4531 checks=35893 violations=0\n"
)
VERIFY_REPORT_G16 = (
    "suite core: gapsets=11770 checks=152999 violations=0\n"
    "suite sparse: gapsets=11770 checks=60285 violations=0\n"
    "suite phi: gapsets=11770 checks=73488 violations=0\n"
    "suite bijection: gapsets=972 checks=229 violations=0\n"
    "total: suites=4 gapsets=36282 checks=287001 violations=0\n"
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestEnumerate:
    def test_text(self, capsys):
        code, out = run(capsys, "enumerate", "--genus", "3", "--format", "text")
        assert code == 0
        assert out.splitlines() == ["1,2,3", "1,2,4", "1,2,5", "1,3,5"]

    def test_pure_filter(self, capsys):
        code, out = run(
            capsys, "enumerate", "--genus", "6", "--kappa", "4", "--pure"
        )
        assert code == 0
        assert len(out.splitlines()) == 5

    def test_impossible_kappa_is_empty_success(self, capsys):
        code, out = run(
            capsys, "enumerate", "--genus", "3", "--kappa", "9", "--pure"
        )
        assert code == 0
        assert out == ""

    def test_json_round_trip(self, capsys):
        code, out = run(capsys, "enumerate", "--genus", "4", "--format", "json")
        assert code == 0
        for line in out.splitlines():
            record = json.loads(line)
            g = validate_gapset(record["gaps"])
            rec = invariants(g)
            assert record["genus"] == rec.genus
            assert record["multiplicity"] == rec.multiplicity
            assert record["conductor"] == rec.conductor
            assert record["frobenius"] == rec.frobenius
            assert record["depth"] == rec.depth
            assert record["kappa"] == rec.kappa
            assert record["alpha"] == rec.alpha

    def test_json_alpha_null_for_small_genus(self, capsys):
        _, out = run(capsys, "enumerate", "--genus", "1", "--format", "json")
        assert json.loads(out)["alpha"] is None

    def test_csv_round_trip(self, capsys):
        code, out = run(capsys, "enumerate", "--genus", "4", "--format", "csv")
        lines = out.splitlines()
        header = lines[0].split(",")
        assert header[0] == "gaps" and header[-1] == "alpha"
        for line in lines[1:]:
            fields = dict(zip(header, line.split(",")))
            g = validate_gapset(int(v) for v in fields["gaps"].split())
            rec = invariants(g)
            assert int(fields["genus"]) == rec.genus
            assert int(fields["kappa"]) == rec.kappa
            alpha = None if fields["alpha"] == "" else int(fields["alpha"])
            assert alpha == rec.alpha

    def test_bad_flags_exit_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["enumerate", "--genus", "3", "--format", "yaml"])
        assert err.value.code == 2
        with pytest.raises(SystemExit) as err:
            main(["enumerate", "--genus", "3", "--pure"])
        assert err.value.code == 2

    def test_resource_limit_exit_3(self, capsys):
        assert main(["enumerate", "--genus", "99"]) == 3

    def test_depth_filter(self, capsys):
        from gapsets import enumerate_gapsets, invariants

        code, out = run(capsys, "enumerate", "--genus", "6", "--depth", "2")
        expected = sum(1 for g in enumerate_gapsets(6) if invariants(g).depth == 2)
        assert code == 0
        assert len(out.splitlines()) == expected > 0


def reference_stdout(genus, fmt, kappa=None, pure=False, depth=None):
    """`enumerate` stdout built the long way: Gapset objects, invariants, an
    inline kappa/depth pick and json.dumps."""
    picked = [
        (g, rec)
        for g, rec in ((g, invariants(g)) for g in enumerate_gapsets(genus))
        if (kappa is None or rec.kappa == kappa or (not pure and rec.kappa < kappa))
        and (depth is None or rec.depth == depth)
    ]
    lines = ["gaps,genus,multiplicity,conductor,frobenius,depth,kappa,alpha"] if fmt == "csv" else []
    for g, rec in picked:
        fields = {
            "gaps": list(g.elements),
            "genus": rec.genus,
            "multiplicity": rec.multiplicity,
            "conductor": rec.conductor,
            "frobenius": rec.frobenius,
            "depth": rec.depth,
            "kappa": rec.kappa,
            "alpha": rec.alpha,
        }
        if fmt == "text":
            lines.append(",".join(map(str, g.elements)))
        elif fmt == "json":
            lines.append(json.dumps(fields))
        else:
            fields["gaps"] = " ".join(map(str, g.elements))
            fields["alpha"] = "" if rec.alpha is None else rec.alpha
            lines.append(",".join(map(str, fields.values())))
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("which", ["none", "kappa", "pure", "depth"])
def test_stdout_matches_the_gapset_path(fmt, which, capsys):
    for genus in range(13):
        if which == "pure":
            values = set(range(genus + 2))
        else:
            values = {0, 1, 2, -(-2 * genus // 3), genus}
        for v in sorted(values) if which != "none" else [None]:
            flags = {
                "none": (),
                "kappa": ("--kappa", str(v)),
                "pure": ("--kappa", str(v), "--pure"),
                "depth": ("--depth", str(v)),
            }[which]
            code, out = run(capsys, "enumerate", "--genus", str(genus), "--format", fmt, *flags)
            assert code == 0
            expected = reference_stdout(
                genus,
                fmt,
                kappa=v if which in ("kappa", "pure") else None,
                pure=which == "pure",
                depth=v if which == "depth" else None,
            )
            assert out == expected, (genus, flags)


def assert_digest(out, frozen):
    lines, digest = frozen
    assert out.count("\n") == lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_genus_16_json_digest(capsys):
    code, out = run(capsys, "enumerate", "--genus", "16", "--format", "json")
    assert code == 0
    assert_digest(out, GENUS_16_JSON)


@pytest.mark.parametrize("fmt, frozen", [("text", GENUS_16_TEXT), ("csv", GENUS_16_CSV)])
def test_genus_16_digest(capsys, fmt, frozen):
    code, out = run(capsys, "enumerate", "--genus", "16", "--format", fmt)
    assert code == 0
    assert_digest(out, frozen)


# the genus-22 pure-kappa commands take about 0.1 s each; the genus-21
# listing takes seconds
@pytest.mark.parametrize(
    "argv",
    [
        argv if "--pure" in argv else pytest.param(argv, marks=pytest.mark.slow)
        for argv in STREAM_DIGESTS
    ],
    ids="-".join,
)
def test_stream_digest(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 0
    assert_digest(out, STREAM_DIGESTS[argv])


class WriteLog:
    """A stdout stand-in that keeps every `write` call's argument."""

    def __init__(self):
        self.calls = []

    def write(self, s):
        self.calls.append(s)
        return len(s)


def write_calls(monkeypatch, *argv):
    sink = WriteLog()
    monkeypatch.setattr(sys, "stdout", sink)
    assert main(list(argv)) == 0
    return sink.calls


class TestBlockWrites:
    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_calls_and_their_sizes(self, monkeypatch, capsys, fmt):
        argv = ("enumerate", "--genus", "12", "--format", fmt)
        _, expected = run(capsys, *argv)
        calls = write_calls(monkeypatch, *argv)
        assert "".join(calls) == expected
        if fmt == "csv":
            assert calls.pop(0) == CSV_HEADER + "\n"
        rest = GAPSET_COUNTS[12] - 1  # lines after the first
        sizes = [call.count("\n") for call in calls]
        assert sizes == [1] + [BLOCK_LINES] * (rest // BLOCK_LINES) + [rest % BLOCK_LINES]

    def test_genus_16_json_blocks(self, monkeypatch):
        calls = write_calls(monkeypatch, "enumerate", "--genus", "16", "--format", "json")
        assert len(calls) <= -(-GAPSET_COUNTS[16] // BLOCK_LINES) + 1
        assert_digest("".join(calls), GENUS_16_JSON)

    @pytest.mark.parametrize("fmt, expected", [("text", []), ("json", []), ("csv", [CSV_HEADER + "\n"])])
    def test_nothing_kept(self, monkeypatch, fmt, expected):
        argv = ("enumerate", "--genus", "8", "--kappa", "20", "--pure", "--format", fmt)
        assert write_calls(monkeypatch, *argv) == expected


class Discard:
    """A stdout stand-in that drops what it is given."""

    def write(self, s):
        return len(s)


def test_enumerate_memory_does_not_grow_with_the_listing(monkeypatch):
    # on CPython 3.11 the genus-14 and genus-18 JSON listings (1,693 and
    # 13,467 lines) peak near 256 kB and 334 kB: a block of lines, the walk's
    # stack and the O(g^2) text tables, filled before the walk (about 85 kB
    # and 136 kB); keeping every genus-18 line would add megabytes
    monkeypatch.setattr(sys, "stdout", Discard())
    peaks = {}
    for genus in (14, 18):
        code, peaks[genus] = traced_peak(main, ["enumerate", "--genus", str(genus), "--format", "json"])
        assert code == 0
    assert peaks[18] < peaks[14] + 100_000


def test_unbuffered_pipe_matches_in_process(capsys):
    argv = ["enumerate", "--genus", "12", "--format", "json"]
    _, expected = run(capsys, *argv)
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "gapsets.cli", *argv], stdout=subprocess.PIPE, env=env, check=True
    )
    assert proc.stdout == expected.encode()


class TestTable:
    def test_csv_row(self, capsys):
        code, out = run(capsys, "table", "--max-genus", "10", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "g," + ",".join(map(str, range(11))) + ",n_g"
        row10 = lines[-1].split(",")
        assert row10[0] == "10"
        assert row10[3] == "27"  # kappa = 2 column
        assert row10[-1] == "204"

    def test_max_genus_zero(self, capsys):
        code, out = run(capsys, "table", "--max-genus", "0", "--format", "csv")
        assert out.splitlines()[1] == "0,1,1"

    def test_csv_row_19(self, capsys):
        _, out = run(capsys, "table", "--max-genus", "19", "--format", "csv")
        row19 = out.splitlines()[-1]
        assert row19.startswith("19,,1,413,2448,4464,")
        assert row19.endswith(",2,1,22464")

    def test_markdown_marks_diagonal(self, capsys):
        _, out = run(capsys, "table", "--max-genus", "6", "--format", "markdown")
        row6 = out.splitlines()[-1]
        assert "5*" in row6

    def test_markdown_matches_golden(self, capsys):
        code, out = run(capsys, "table", "--max-genus", "19", "--format", "markdown")
        assert code == 0
        assert out == GOLDEN.read_text()


class TestSequence:
    def test_ng(self, capsys):
        code, out = run(capsys, "sequence", "ng", "--max-genus", "9")
        assert code == 0
        assert out.strip() == "1,1,2,4,7,12,23,39,67,118"

    def test_gw(self, capsys):
        code, out = run(capsys, "sequence", "gw", "--max-w", "6")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "w,g_w,ratio,cumulative"
        assert lines[1] == "0,1,-,1"
        assert lines[-1] == "6,167,2.386,1.719"

    def test_missing_bound_exit_2(self):
        with pytest.raises(SystemExit) as err:
            main(["sequence", "gw"])
        assert err.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--max-genus", "-1"],
        ["sequence", "ng", "--max-genus", "-1"],
        ["sequence", "gw", "--max-w", "-1"],
        ["verify", "--max-genus", "-2"],
        ["enumerate", "--genus", "3", "--workers", "0"],
        ["verify", "--max-genus", "3", "--workers", "-3"],
        ["table", "--max-genus", "3", "--workers", "2"],
        ["sequence", "gw", "--max-w", "3", "--workers", "1"],
        ["verify", "--max-genus", "3", "--cache-dir", "x"],
        ["enumerate", "--genus", "4", "--kappa", "-1"],
        ["enumerate", "--genus", "4", "--depth", "-1"],
        ["map", "--gapset", "1,2,4,7", "--op", "phi-inverse", "--kappa", "-1"],
    ],
)
def test_bad_bounds_exit_2(argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2


def patch_walks(monkeypatch):
    """Make every tree walk raise, patched under the name its caller looks up:
    `enumerate` calls cli._iter_records (with kappa under --pure),
    `enumerate_gapsets` enumeration._iter_records, `verify`
    verification._iter_records (maps._iter_records for the bijection
    suite's families), and `table` and `sequence` the tally names."""

    def entered(*_args, **_kwargs):
        raise AssertionError("the tree search started")

    monkeypatch.setattr(cli, "_iter_records", entered)
    monkeypatch.setattr(enumeration, "_iter_records", entered)
    monkeypatch.setattr(verification, "_iter_records", entered)
    monkeypatch.setattr(maps, "_iter_records", entered)
    monkeypatch.setattr(tally, "_count_cells", entered)
    monkeypatch.setattr(tally, "_iter_records", entered)


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--max-genus", "3"],
        ["sequence", "ng", "--max-genus", "3"],
        ["sequence", "gw", "--max-w", "1"],
        ["enumerate", "--genus", "3"],
        ["verify", "--max-genus", "1"],
        ["enumerate", "--genus", "3", "--kappa", "2", "--pure"],
        ["verify", "--max-genus", "1", "--suite", "bijection"],
    ],
)
def test_patched_walks_are_reached(argv, monkeypatch):
    # the control for the tests below, which patch the walks to show that a
    # command stops before any of them starts
    patch_walks(monkeypatch)
    with pytest.raises(AssertionError, match="the tree search started"):
        main(argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["sequence", "gw", "--max-w", "2", "--max-genus", "40"],
        ["sequence", "ng", "--max-genus", "3", "--max-w", "99"],
        ["map", "--gapset", "1,3,5", "--op", "phi", "--kappa", "2"],
        ["map", "--gapset", "1,3,5", "--op", "sigma", "--kappa", "2"],
    ],
)
def test_flag_of_another_mode_exit_2_before_any_output(argv, monkeypatch, capsys):
    patch_walks(monkeypatch)
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    if argv[0] == "sequence":
        assert "unrecognized arguments" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--max-genus", "31"],
        ["sequence", "ng", "--max-genus", "40"],
        ["sequence", "gw", "--max-w", "11"],
        ["enumerate", "--genus", "31", "--format", "csv"],
        ["verify", "--max-genus", "31"],
        ["verify", "--max-genus", "30", "--suite", "bijection"],
        ["enumerate", "--genus", "31", "--kappa", "5", "--pure"],
    ],
)
def test_resource_limit_exit_3_before_searching(argv, monkeypatch, capsys):
    patch_walks(monkeypatch)
    assert main(argv) == 3
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_pure_kappa_reads_only_the_pure_walk(fmt, monkeypatch, capsys):
    argv = ["enumerate", "--genus", "12", "--kappa", "5", "--pure", "--format", fmt]
    _, expected = run(capsys, *argv)
    walk = cli._iter_records

    def pruned_only(*args, **kwargs):
        if kwargs.get("kappa") != 5:
            raise AssertionError("the full record walk started")
        return walk(*args, **kwargs)

    monkeypatch.setattr(cli, "_iter_records", pruned_only)
    assert run(capsys, *argv) == (0, expected)
    assert expected.count("\n") == COUNTS_BY_KAPPA[12][5] + (fmt == "csv")


# library code that stays only while the benchmark times it as a layer
UNREACHED = ("filter_gapsets", "filter_pure_sparse", "cache_store", "cache_load")


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--genus", "6", "--kappa", "4", "--pure", "--format", "json"],
        ["table", "--max-genus", "8"],
        ["sequence", "ng", "--max-genus", "8"],
        ["sequence", "gw", "--max-w", "3"],
        ["map", "--gapset", "1,3,5", "--op", "phi"],
        ["map", "--gapset", "1,2,3,4,5,6,7,8,9,11,19,21", "--op", "sigma"],
        ["map", "--gapset", "1,2,4,7", "--op", "phi-inverse", "--kappa", "3"],
        ["verify", "--max-genus", "6"],
    ],
    ids="-".join,
)
def test_no_command_reaches_the_cache_pool_or_filter(argv, monkeypatch, capsys):
    _, expected = run(capsys, *argv)

    def reached(*_args, **_kwargs):
        raise AssertionError("a command reached the cache, the pool or the filter")

    # every name a loaded gapsets module binds, so a by-name import is caught too
    for module in [m for name, m in sys.modules.items() if name.startswith("gapsets.")]:
        for name in UNREACHED:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, reached)
    assert run(capsys, *argv) == (0, expected)


def test_sequence_gw_walks_to_genus_3w(monkeypatch, capsys):
    # one kappa-pruned record walk (genus 3w, kappa 2w) per term, the
    # largest to genus 30 for --max-w 10; --max-w 11 would need genus 33
    walked = []

    def diagonal(genus, *, pieces, kappa):
        walked.append((genus, kappa))
        return iter([None])

    def entered(*_args):
        raise AssertionError("the full count walk started")

    monkeypatch.setattr(tally, "_iter_records", diagonal)
    monkeypatch.setattr(tally, "_count_cells", entered)
    assert main(["sequence", "gw", "--max-w", "10"]) == 0
    assert walked == [(3 * w, 2 * w) for w in range(11)]
    capsys.readouterr()
    assert main(["sequence", "gw", "--max-w", "11"]) == 3
    assert walked == [(3 * w, 2 * w) for w in range(11)]
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "genus 33 exceeds the ceiling 30" in captured.err


class TestMap:
    def test_widen(self, capsys):
        code, out = run(capsys, "map", "--gapset", "1,3,5", "--op", "phi")
        assert code == 0
        assert "phi: 1,2,4,7" in out
        assert "classification: gapset" in out
        assert "sigma:" in out

    def test_not_an_m_set_report(self, capsys):
        code, out = run(
            capsys, "map", "--gapset", "1,2,3,4,6,7,9,11,14", "--op", "phi"
        )
        assert code == 0
        assert "classification: not-m-set" in out

    def test_invalid_input_exit_4(self, capsys):
        code, out = run(capsys, "map", "--gapset", "1,4", "--op", "phi")
        assert code == 4
        assert "(4, 2, 2)" in out

    def test_huge_element_exits_4_without_a_mask_of_its_size(self, capsys):
        code, out = run(capsys, "map", "--gapset", "1,1000000000000")
        assert code == 4
        assert out == "not a gapset: witness (1000000000000, 2, 999999999998)\n"

    def test_shift_blocks(self, capsys):
        code, out = run(capsys, "map", "--gapset", "1,2,3,4,5,6,7,8,9,11,19,21", "--op", "sigma")
        assert code == 0
        assert "sigma: 1,2,3,4,5,6,7,8,9,10,12,20,23" in out
        assert "classification: gapset" in out

    def test_narrow(self, capsys):
        code, out = run(
            capsys, "map", "--gapset", "1,2,4,7", "--op", "phi-inverse", "--kappa", "3"
        )
        assert code == 0
        assert "phi-inverse: 1,3,5" in out

    def test_narrow_out_of_regime_exit_4(self, capsys):
        code, _ = run(
            capsys, "map", "--gapset", "1,3,5", "--op", "phi-inverse", "--kappa", "2"
        )
        assert code == 4

    def test_narrow_without_kappa_exit_2_before_any_output(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["map", "--gapset", "1,2,4,7", "--op", "phi-inverse"])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--op phi-inverse requires --kappa" in captured.err


class TestVerify:
    def test_core_suite_coverage(self, capsys):
        code, out = run(capsys, "verify", "--max-genus", "3", "--suite", "core")
        assert code == 0
        assert "gapsets=8" in out
        assert "violations=0" in out

    def test_all_suites_pass(self, capsys):
        code, out = run(capsys, "verify", "--max-genus", "6", "--suite", "all")
        assert code == 0
        assert out.count("violations=0") >= 4

    def test_all_runs_every_suite(self):
        # `--suite all` runs SUITE_NAMES: a suite added only to the
        # verification module would be skipped without a word
        assert list(cli.SUITE_NAMES) == list(verification._BODY)

    @pytest.mark.parametrize(
        "max_genus, report",
        [
            pytest.param("12", VERIFY_REPORT_G12, id="g12"),
            pytest.param("16", VERIFY_REPORT_G16, id="g16"),
        ],
    )
    def test_report_is_frozen(self, capsys, max_genus, report):
        code, out = run(capsys, "verify", "--max-genus", max_genus, "--suite", "all")
        assert code == 0
        assert out == report

    @pytest.mark.slow
    def test_bijection_suite_at_the_largest_accepted_genus(self, capsys):
        # 165 region pairs of genus <= 29, each read from two kappa-pruned
        # walks; gapsets=39714 is the sum of their cells in _count_cells(30)
        code, out = run(capsys, "verify", "--max-genus", "29", "--suite", "bijection")
        assert code == 0
        assert out == (
            "suite bijection: gapsets=39714 checks=661 violations=0\n"
            "total: suites=1 gapsets=39714 checks=661 violations=0\n"
        )

    @pytest.mark.slow
    def test_all_suites_to_genus_20(self, capsys):
        # one walk per genus 0..20 feeds core, sparse and phi, one genus held
        # at a time; the bijection suite reads its 84 region family pairs
        code, out = run(capsys, "verify", "--max-genus", "20", "--suite", "all")
        assert code == 0
        assert out.splitlines()[-1] == (
            "total: suites=4 gapsets=282360 checks=2248811 violations=0"
        )

    def test_violations_exit_1_with_witness(self, capsys, monkeypatch):
        from gapsets import verification
        from gapsets.verification import SuiteReport, Violation

        def fake(names, max_genus):
            report = SuiteReport("core", max_genus, gapsets_covered=1, checks_run=1)
            report.violations.append(
                Violation("core", "planted", (1, 4), "for the exit-code contract")
            )
            return [report]

        monkeypatch.setattr(verification, "run_suites", fake)
        code, out = run(capsys, "verify", "--max-genus", "2")
        assert code == 1
        assert "VIOLATION planted: 1,4" in out


HEAVY_MODULES = (
    "multiprocessing",
    "dataclasses",
    "fractions",
    "gapsets.core",
    "gapsets.maps",
    "gapsets.tally",
    "gapsets.verification",
)


def loaded_after(code):
    """The HEAVY_MODULES a fresh interpreter has loaded after running `code`,
    which may replace sys.stdout."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = (
        "import io, sys\n"
        f"{code}\n"
        f"print(','.join(m for m in {HEAVY_MODULES!r} if m in sys.modules), file=sys.__stdout__)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    return set(filter(None, proc.stdout.strip().split(",")))


class TestImports:
    def test_package_loads_a_submodule_on_first_use(self):
        assert loaded_after("import gapsets") == set()
        code = "import gapsets\nassert gapsets.maps.__name__ == 'gapsets.maps'"
        assert {"gapsets.core", "gapsets.maps"} <= loaded_after(code)

    def test_cli_import_loads_only_the_kernel(self):
        assert loaded_after("import gapsets.cli") == set()

    def test_enumerate_loads_only_the_kernel(self):
        code = (
            "from gapsets.cli import main\n"
            "sys.stdout = io.StringIO()\n"
            "assert main(['enumerate', '--genus', '5']) == 0"
        )
        assert loaded_after(code) == set()

    def test_table_loads_tally_only(self):
        for argv in (["table", "--max-genus", "5"], ["sequence", "ng", "--max-genus", "5"]):
            code = (
                "from gapsets.cli import main\n"
                "sys.stdout = io.StringIO()\n"
                f"assert main({argv!r}) == 0"
            )
            loaded = loaded_after(code)
            assert "gapsets.tally" in loaded, argv
            assert not loaded & {
                "gapsets.maps", "gapsets.verification", "multiprocessing", "fractions", "dataclasses",
            }, argv

    def test_walks_load_no_core(self):
        # the chain a walk starts at needs no scan, so no walk imports core
        code = (
            "from gapsets.enumeration import _count_cells, _iter_records\n"
            "assert _count_cells(8)[8] and list(_iter_records(6, kappa=4))"
        )
        assert loaded_after(code) == set()

    def test_sequence_gw_loads_tally_without_dataclasses(self):
        code = (
            "from gapsets.cli import main\n"
            "sys.stdout = io.StringIO()\n"
            "assert main(['sequence', 'gw', '--max-w', '3']) == 0"
        )
        loaded = loaded_after(code)
        assert "gapsets.tally" in loaded
        assert not loaded & {"dataclasses", "fractions", "gapsets.core"}

    def test_verify_and_map_load_no_dataclasses(self):
        for argv in (
            ["verify", "--max-genus", "4"],
            ["map", "--gapset", "1,3,5", "--op", "phi"],
            ["map", "--gapset", "1,2,4", "--op", "sigma"],
            ["map", "--gapset", "1,2,4,7", "--op", "phi-inverse", "--kappa", "3"],
        ):
            code = (
                "from gapsets.cli import main\n"
                "sys.stdout = io.StringIO()\n"
                f"assert main({argv!r}) == 0"
            )
            loaded = loaded_after(code)
            assert "gapsets.maps" in loaded, argv
            assert "dataclasses" not in loaded, argv


class TestLazyExports:
    def test_every_public_name_is_its_submodules_object(self):
        for name in gapsets.__all__:
            obj = getattr(gapsets, name)
            assert getattr(importlib.import_module(obj.__module__), name) is obj
            assert name in dir(gapsets)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            gapsets.no_such_name

    def test_brute_force_is_a_test_oracle_not_a_public_name(self):
        # it lives in tests/oracles.py; the package neither exports it nor
        # defines it
        with pytest.raises(AttributeError, match="brute_force_gapsets"):
            gapsets.brute_force_gapsets
        assert "brute_force_gapsets" not in gapsets.__all__
        assert not hasattr(gapsets.enumeration, "brute_force_gapsets")
        assert not hasattr(gapsets.enumeration, "BRUTE_FORCE_MAX_GENUS")

    def test_submodule_import(self):
        import gapsets.enumeration as direct
        from gapsets import enumeration as via_from

        assert via_from is direct
