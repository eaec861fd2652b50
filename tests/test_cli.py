import hashlib
import json
import math
import os
import re
import sys
import threading
from concurrent.futures import Future
from unittest import mock

import pytest

from arccover import ConfigError, analyze, cli, lengths, simulate
from arccover.cli import _DEFAULTS, _build_parser, main


def run(tmp_path, *argv):
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        return main(list(argv))
    finally:
        os.chdir(cwd)


class TestTrial:
    def test_writes_files(self, tmp_path):
        code = run(tmp_path, "trial", "--target", "circle", "--lengths", "logn:2.5",
                   "--n-max", "20000", "--seed", "7", "--out", "t")
        assert code == 0
        csv = (tmp_path / "t.csv").read_text()
        assert csv.splitlines()[-1].split(",")[0] == "20000"
        assert "n,ell_n,covered,uncovered_measure,piece_count" in csv
        summary = json.loads((tmp_path / "t.json").read_text())
        assert summary["summary"]["eventually_covered"] is True
        assert summary["prng"] == "numpy.random.Philox"
        assert summary["config"]["seed"] == 7

    def test_repeat_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(), b.mkdir()
        for d in (a, b):
            assert run(d, "trial", "--target", "circle", "--lengths", "logn:2.5",
                       "--n-max", "20000", "--seed", "7", "--out", "x") == 0
        assert (a / "x.csv").read_bytes() == (b / "x.csv").read_bytes()
        assert (a / "x.json").read_bytes() == (b / "x.json").read_bytes()

    def test_jobs_flag_refused(self, tmp_path):
        # one trial runs in one process, so trial takes no --jobs
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, "trial", "--jobs", "2")
        assert exc.value.code == 2

    def test_infinite_checkpoint_ratio_exit_2(self, tmp_path, capsys):
        assert run(tmp_path, "trial", "--target", "circle", "--lengths", "logn:0.5",
                   "--n-max", "1000", "--checkpoint-ratio", "inf", "--out", "t") == 2
        assert capsys.readouterr().err == ("error: checkpoint_ratio: must be finite "
                                           "and > 1, got inf\n")
        assert not (tmp_path / "t.csv").exists()

    def test_huge_checkpoint_ratio_runs(self, tmp_path):
        # the grid jumps from the first checkpoint to the horizon
        assert run(tmp_path, "trial", "--target", "circle", "--lengths", "logn:0.5",
                   "--n-max", "1000", "--checkpoint-ratio", repr(sys.float_info.max),
                   "--out", "t") == 0
        rows = (tmp_path / "t.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows[-2:]] == ["64", "1000"]

    def test_validation_exit_2(self, tmp_path):
        assert run(tmp_path, "trial", "--target", "nope") == 2
        assert run(tmp_path, "trial", "--lengths", "logn:-1") == 2
        # pre-fractal coarser than the horizon scale
        assert run(tmp_path, "trial", "--target", "cantor:0.45:14",
                   "--lengths", "logn:2", "--n-max", "1000000") == 2


class TestScan:
    def test_grid_rows_and_svg_rules(self, tmp_path):
        code = run(tmp_path, "scan", "--target", "circle", "--c", "0.25:3.0:0.25",
                   "--trials", "1", "--n-max", "300", "--first-checkpoint", "16",
                   "--out", "s")
        assert code == 0
        rows = [ln for ln in (tmp_path / "s.csv").read_text().splitlines()
                if ln and not ln.startswith("#")][1:]
        assert len(rows) == 12
        svg = (tmp_path / "s.svg").read_text()
        assert svg.startswith("<svg")
        assert "dim_H=1" in svg and "dim_B+1=2" in svg

    def test_jobs_do_not_change_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(), b.mkdir()
        argv = ["scan", "--target", "circle", "--c", "0.5,2.5", "--trials", "3",
                "--n-max", "2000", "--out", "s"]
        assert run(a, *argv, "--jobs", "1") == 0
        assert run(b, *argv, "--jobs", "2") == 0
        for name in ("s.csv", "s.json", "s.svg"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_env_jobs_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ARCCOVER_JOBS", "2")
        assert run(tmp_path, "scan", "--target", "circle", "--c", "0.5,2.5",
                   "--trials", "2", "--n-max", "1000", "--out", "s") == 0
        monkeypatch.setenv("ARCCOVER_JOBS", "zzz")
        assert run(tmp_path, "scan", "--target", "circle", "--c", "0.5,2.5",
                   "--trials", "2", "--n-max", "1000", "--out", "s2") == 2

    @pytest.mark.parametrize("argv, field", [
        (["--c", "2.5,0.5"], "c"),
        (["--c", "0.2,0.3", "--target", "cantor:0.3333333333:8", "--n-max", "3000"], "c"),
        (["--trials", "0"], "trials"),
    ], ids=["grid", "every-cell-failed", "trials"])
    def test_bad_scan_input_exit_2(self, tmp_path, capsys, argv, field):
        assert run(tmp_path, "scan", "--target", "circle", "--c", "0.5,2.5",
                   "--trials", "1", "--n-max", "1000", *argv, "--out", "s") == 2
        assert capsys.readouterr().err.startswith(f"error: {field}: ")
        assert not (tmp_path / "s.csv").exists()


    @pytest.mark.parametrize("dim_H", [None, 1.0, 0.5])
    def test_custom_dim_H_labels_no_cover(self, tmp_path, dim_H):
        target = {"intervals": [[0.1, 0.3], [0.5, 0.6]], "beta": 1}
        if dim_H is not None:
            target["dim_H"] = dim_H
        spec = _custom(tmp_path, json.dumps(target))
        assert run(tmp_path, "scan", "--target", spec, "--c", "0.4,0.75,1.5,2.5",
                   "--trials", "1", "--n-max", "1000", "--jobs", "1", "--out", "s") == 0
        scan = json.loads((tmp_path / "s.json").read_text())["scan"]
        assert scan["dim_H"] == dim_H
        # c below dim_H cannot cover; c above beta + 1 = 2 does
        want = {None: ["theorem-silent"] * 3, 1.0: ["no-cover"] * 2 + ["theorem-silent"],
                0.5: ["no-cover"] + ["theorem-silent"] * 2}[dim_H] + ["cover"]
        assert [row["regime"] for row in scan["rows"]] == want

    @pytest.mark.parametrize("argv, warning", [
        (["--c", "1.0"], ""),
        (["--target", "cantor:0.3333333333:8", "--c", "0.3,2.0"], "warning: c=0.3 skipped: "),
        (["--c", "1e17"], ""),
        (["--c", "5e-324,1"], "warning: c=4.94066e-324 skipped: lengths: logn:4.94066e-324 "
                              "gives ell(n) = 0 at n = 3000"),
    ], ids=["one-c", "guard-keeps-one-c", "c-past-2**53", "zero-length-c"])
    def test_scan_of_one_c(self, tmp_path, capsys, argv, warning):
        assert run(tmp_path, "scan", "--n-max", "3000", "--trials", "3", *argv, "--out", "s") == 0
        err = capsys.readouterr().err
        assert err.startswith(warning) if warning else err == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.csv", "s.json", "s.svg"]
        # the frame keeps a positive width, and the one dot lies inside it
        svg = (tmp_path / "s.svg").read_text()
        x, y, w, h = map(float, re.search(r'<rect x="(.+?)" y="(.+?)" width="(.+?)" '
                                          r'height="(.+?)"', svg).groups())
        [(cx, cy)] = re.findall(r'<circle cx="(.+?)" cy="(.+?)"', svg)
        assert w > 0
        assert x <= float(cx) <= x + w and y <= float(cy) <= y + h

    @pytest.mark.parametrize("tail", ["0", "-7", "1000"])
    def test_tail_window_outside_grid_exit_2(self, tmp_path, capsys, tail):
        def no_pool(*args, **kwargs):
            raise AssertionError("the pool started")

        # n_max 1000 gives a grid of 30 checkpoints
        with mock.patch.object(analyze, "ProcessPoolExecutor", no_pool):
            assert run(tmp_path, "scan", "--target", "circle", "--c", "0.5,2.5",
                       "--trials", "1", "--n-max", "1000", "--jobs", "2",
                       "--tail-checkpoints", tail, "--out", "s") == 2
        err = capsys.readouterr().err
        assert err == f"error: tail_checkpoints: must be in [1, 30], got {tail}\n"
        assert not (tmp_path / "s.csv").exists()


class TestDims:
    @pytest.mark.parametrize("tail", ["-3", "0", "1000"])
    def test_tail_window_outside_grid_exit_2(self, tmp_path, capsys, tail):
        # n_max 20000 gives a grid of 62 checkpoints
        assert run(tmp_path, "dims", "--c", "0.5", "--n-max", "20000", "--seeds", "3",
                   "--tail-checkpoints", tail, "--out", "d") == 2
        assert "tail_checkpoints" in capsys.readouterr().err
        assert not (tmp_path / "d.csv").exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_tail_window_names_the_grid_before_any_pool(self, tmp_path, capsys, jobs):
        def no_pool(*args, **kwargs):
            raise AssertionError("the pool started")

        with mock.patch.object(analyze, "ProcessPoolExecutor", no_pool):
            assert run(tmp_path, "dims", "--c", "0.5", "--n-max", "20000", "--seeds", "3",
                       "--tail-checkpoints", "1000", "--jobs", jobs, "--out", "d") == 2
        assert "tail_checkpoints: must be in [1, 62], got 1000" in capsys.readouterr().err


    def test_infinite_checkpoint_ratio_exit_2(self, tmp_path, capsys):
        assert run(tmp_path, "dims", "--c", "0.5", "--n-max", "2000", "--seeds", "1",
                   "--checkpoint-ratio", "inf", "--out", "d") == 2
        assert capsys.readouterr().err == ("error: checkpoint_ratio: must be finite "
                                           "and > 1, got inf\n")
        assert not (tmp_path / "d.csv").exists()

    def test_internal_fault_exits_1(self, tmp_path, capsys, monkeypatch):
        # an invariant failing inside the program is not a bad configuration
        def broken(*args, **kwargs):
            raise ValueError("box counts must be non-decreasing as the scale shrinks")

        monkeypatch.setattr(analyze, "box_dimension", broken)
        assert run(tmp_path, "dims", "--c", "0.5", "--n-max", "2000", "--seeds", "1",
                   "--out", "d") == 1
        assert capsys.readouterr().err.startswith("runtime failure: ValueError: box counts")


def _custom(tmp_path, text):
    (tmp_path / "t.json").write_text(text)
    return "custom:t.json"


class TestConfigErrors:
    """Every bad input exits 2 and names its field."""

    @pytest.mark.parametrize("spec", [
        "cantor:0.6:3", "cantor:0.3:0", "cantor:0.3:30", "cantor:0.3", "cantor:x:3",
        "points:", "points:0.2,0.2", "points:1.5", "points:a", "nope",
        "custom:missing.json", "custom:{not json", '{"intervals": [[0.1, 0.2]]}',
        '{"intervals": [], "beta": 1}', '{"intervals": [[0.5, 0.2]], "beta": 1}',
        '{"intervals": [[0.1, 0.2]], "beta": 2}', '{"intervals": 5, "beta": 1}',
        '[1, 2]', '{"intervals": [[0.1, 0.2]], "beta": 0.7, "dim_H": 0.71}',
        '{"intervals": [[0.1, 0.2]], "beta": 1, "dim_H": -0.1}',
        '{"intervals": [[0.1, 0.2]], "beta": 1, "dim_H": NaN}',
        '{"intervals": [[0.1, 0.2]], "beta": 1, "dim_H": Infinity}',
        '{"intervals": [[0.1, 0.2]], "beta": 1, "dim_H": "x"}',
        '{"intervals": [[0.1, 0.2]], "beta": 1, "dim_H": null}'])
    def test_bad_target(self, tmp_path, capsys, spec):
        if spec.startswith(("custom:{", "{", "[")):
            spec = _custom(tmp_path, spec.removeprefix("custom:"))
        assert run(tmp_path, "trial", "--target", spec, "--n-max", "1000") == 2
        assert capsys.readouterr().err.startswith("error: target: ")

    @pytest.mark.parametrize("command", ["trial", "scan"])
    def test_coarse_custom_target(self, tmp_path, capsys, command):
        # a union that claims beta 0.7 stands in for a fractal only above its
        # shortest interval, 0.1 here, and ell(1000) <= 10 * 0.1 at every c
        pieces = '"intervals": [[0.1, 0.3], [0.5, 0.6]]'
        spec = _custom(tmp_path, f'{{{pieces}, "beta": 0.7}}')
        argv = [command, "--target", spec, "--n-max", "1000", "--out", "x"]
        if command == "scan":
            argv += ["--c", "0.5,2.5", "--trials", "2", "--jobs", "1"]
        assert run(tmp_path, *argv) == 2
        err = capsys.readouterr().err
        head = "error: " if command == "trial" else "error: c: every scan cell failed; first error: "
        assert err.startswith(head + "target: pre-fractal too coarse for this horizon")
        # a custom union has no depth to increase
        assert err.endswith("; reduce n_max, shorten the shortest interval or set beta = 1\n")
        assert not list(tmp_path.glob("x.*"))
        # with beta 1 the union has no finest scale, and the same run goes
        _custom(tmp_path, f'{{{pieces}, "beta": 1}}')
        assert run(tmp_path, *argv) == 0

    def test_coarse_cantor_target_message_kept(self, tmp_path, capsys):
        # a scan's `failed` map holds this wording
        assert run(tmp_path, "trial", "--target", "cantor:0.45:14", "--lengths", "logn:2",
                   "--n-max", "1000000") == 2
        assert capsys.readouterr().err == (
            "error: target: pre-fractal too coarse for this horizon: ell(n_max)=2.76e-05 "
            "<= 10 * finest_scale = 0.00014; reduce n_max or increase depth\n")

    def test_custom_dim_H_above_beta(self, tmp_path, capsys):
        # refused as a bad target, not by TargetSet's own check, which exits 1
        spec = _custom(tmp_path, '{"intervals": [[0.1, 0.2]], "beta": 0.7, "dim_H": 0.9}')
        assert run(tmp_path, "trial", "--target", spec, "--n-max", "1000") == 2
        assert capsys.readouterr().err == ("error: target: dim_H must be in [0, beta] = "
                                           "[0, 0.7], got 0.9\n")

    def test_target_message_kept(self, tmp_path, capsys):
        assert run(tmp_path, "trial", "--target", "nope") == 2
        assert capsys.readouterr().err == "error: target: unknown specification 'nope'\n"

    @pytest.mark.parametrize("spec", ["logn:-1", "harmonic:0", "power:1:0", "power:1",
                                      "table:big.csv", "nope", "logn:nan", "logn:inf",
                                      "harmonic:nan", "harmonic:inf", "power:nan:1",
                                      "power:1:nan", "power:1:inf", "table:nan.csv"])
    def test_bad_lengths(self, tmp_path, capsys, spec):
        (tmp_path / "big.csv").write_text("0.5\n1.0\n")
        (tmp_path / "nan.csv").write_text("0.5\nnan\n")
        assert run(tmp_path, "trial", "--lengths", spec, "--n-max", "1000") == 2
        assert capsys.readouterr().err.startswith("error: lengths: ")

    @pytest.mark.parametrize("command", ["series", "schedule"])
    def test_nan_lengths_refused_before_any_sum(self, tmp_path, capsys, command):
        assert run(tmp_path, command, "--lengths", "logn:nan", "--out", "x") == 2
        assert capsys.readouterr().err == ("error: lengths: logn rule needs a finite "
                                           "c > 0, got nan\n")
        assert not list(tmp_path.glob("x.*"))

    @pytest.mark.parametrize("argv, field", [
        (["scan", "--c", "0.5,abc"], "c"),
        (["scan", "--c", "0:x:1"], "c"),
        (["scan", "--c", "0.5,nan"], "c"),
        (["dims", "--c", "0.5", "--n-max", "8", "--first-checkpoint", "1"], "n_max"),
        (["dims", "--c", "-1"], "c"),
        (["dims", "--c", "nan"], "c"),
        (["dims", "--c", "inf"], "c"),
    ], ids=["c-list", "c-range", "c-nan", "dims-window", "dims-c-negative", "dims-c-nan",
            "dims-c-inf"])
    def test_bad_flag_value(self, tmp_path, capsys, argv, field):
        assert run(tmp_path, *argv, "--out", "x") == 2
        assert capsys.readouterr().err.startswith(f"error: {field}: ")

    @pytest.mark.parametrize("command", ["scan", "dims"])
    @pytest.mark.parametrize("how", ["flag", "env"])
    def test_jobs_below_one(self, tmp_path, capsys, monkeypatch, command, how):
        def no_pool(*args, **kwargs):
            raise AssertionError("the pool started")

        monkeypatch.setattr(analyze, "ProcessPoolExecutor", no_pool)
        argv = [command, "--c", "0.5", "--n-max", "20000", "--out", "x"]
        if how == "flag":
            argv += ["--jobs", "0"]
        else:
            monkeypatch.setenv("ARCCOVER_JOBS", "0")
        assert run(tmp_path, *argv) == 2
        assert capsys.readouterr().err == "error: jobs: must be >= 1, got 0\n"
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("field, value", [("seed", "abc"), ("checkpoint_ratio", "x"),
                                              ("first_checkpoint", [1])])
    def test_bad_config_file_value(self, tmp_path, capsys, field, value):
        (tmp_path / "cfg.json").write_text(json.dumps({"version": 1, field: value}))
        assert run(tmp_path, "trial", "--config", "cfg.json", "--n-max", "1000") == 2
        assert capsys.readouterr().err.startswith(f"error: {field}: must be ")


class TestCGrid:
    def test_grid_at_the_cap_is_built(self):
        grid = cli._parse_c_grid(f"0:{cli.MAX_C_VALUES - 1}:1")
        assert len(grid) == cli.MAX_C_VALUES
        assert grid[-1] == cli.MAX_C_VALUES - 1

    @pytest.mark.parametrize("spec", [f"0:{cli.MAX_C_VALUES}:1", "-1e308:1e308:1"])
    def test_grid_past_the_cap_is_refused(self, spec):
        # the second one's value count overflows to inf
        with pytest.raises(ConfigError, match=r"^c: grid .* more than 10000 values$"):
            cli._parse_c_grid(spec)


class TestParser:
    def test_flags_are_the_defaults_table(self):
        subparsers = _build_parser()._subparsers._group_actions[0].choices
        assert set(subparsers) == set(_DEFAULTS)
        for command, table in _DEFAULTS.items():
            flags = {opt for action in subparsers[command]._actions
                     for opt in action.option_strings if opt not in ("-h", "--help")}
            assert flags == {"--" + key.replace("_", "-") for key in table} | {"--config"}


class TestConfigFile:
    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"version": 1, "command": "trial",
                                   "target": "circle", "lengths": "logn:2.5",
                                   "n_max": 5000, "seed": 1}))
        assert run(tmp_path, "trial", "--config", "cfg.json", "--seed", "9",
                   "--out", "t") == 0
        summary = json.loads((tmp_path / "t.json").read_text())
        assert summary["config"]["seed"] == 9
        assert summary["config"]["n_max"] == 5000

    def test_version_and_command_checked(self, tmp_path):
        bad_version = tmp_path / "bad.json"
        bad_version.write_text(json.dumps({"version": 2, "target": "circle"}))
        assert run(tmp_path, "trial", "--config", "bad.json") == 2
        wrong_cmd = tmp_path / "wrong.json"
        wrong_cmd.write_text(json.dumps({"version": 1, "command": "scan"}))
        assert run(tmp_path, "trial", "--config", "wrong.json") == 2

    @pytest.mark.parametrize("version, code", [(True, 2), (False, 2), ("1", 2), (1.0, 0)],
                             ids=["true", "false", "string", "float"])
    def test_version_must_be_the_number_one(self, tmp_path, capsys, version, code):
        # a bool is refused like every other numeric field; 1.0 equals 1
        (tmp_path / "cfg.json").write_text(json.dumps({"version": version}))
        argv = ["trial", "--config", "cfg.json", "--n-max", "1000", "--out", "t"]
        assert run(tmp_path, *argv) == code
        if code:
            want = f"error: version: unsupported config version {version!r}\n"
            assert capsys.readouterr().err == want
            assert not (tmp_path / "t.json").exists()

    def test_unknown_field_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"version": 1, "bogus": 3}))
        assert run(tmp_path, "trial", "--config", "cfg.json") == 2

    def test_scan_c_may_be_a_list(self, tmp_path):
        (tmp_path / "cfg.json").write_text(json.dumps(
            {"version": 1, "c": [0.5, 2.5], "trials": 1, "n_max": 1000}))
        assert run(tmp_path, "scan", "--config", "cfg.json", "--out", "s") == 0
        rows = (tmp_path / "s.csv").read_text().splitlines()[-2:]
        assert [row.split(",")[0] for row in rows] == ["0.5", "2.5"]


class TestRefusals:
    """Each refused input exits 2, prints exactly `error: <field>: ...` and
    writes no file."""

    @pytest.mark.parametrize("argv, err", [
        (["series", "--d", "1.5"], "d: must be in (0, 1), got 1.5"),
        (["series", "--beta", "nan"], "beta: must be finite and >= 0, got nan"),
        (["series", "--n", "9"], "n: series scan needs N >= 10, got 9"),
        (["series", "--lengths", "power:1:1000", "--n", "100"],
         "lengths: power:1:1000 gives ell(n) = 0 at n = 100; every length must be > 0"),
        (["series", "--n", "100000001"],
         "n: series scan to N=100000001 is too large; at most 100000000 terms"),
        (["series", "--n", "1000", "--beta", "1e308"],
         "beta: 1e+308 overflows the log of the covering term, -beta * log(ell(N)), "
         "at N = 1000"),
        (["schedule", "--alpha", "1.5"], "alpha: must be in (0, 1), got 1.5"),
        (["schedule", "--alpha", "0"], "alpha: must be in (0, 1), got 0.0"),
        (["schedule", "--lengths", "power:1:1000"],
         "lengths: power:1:1000 gives ell(n) = 0 at n = 3; every length must be > 0"),
        (["trial", "--lengths", "power:1:1000", "--n-max", "2000"],
         "lengths: power:1:1000 gives ell(n) = 0 at n = 2000; every length must be > 0"),
        (["dims", "--c", "1e-16", "--n-max", "100000", "--seeds", "2"],
         "c: ell(n_max) = 1.15e-20 is below the finest countable scale 2**-62 = 2.17e-19; "
         "raise c or lower n_max"),
        (["dims", "--c", "1e-320", "--n-max", "20000", "--seeds", "2"],
         "c: ell(n_max) = 4.94e-324 is below the finest countable scale 2**-62 = 2.17e-19; "
         "raise c or lower n_max"),
        (["dims", "--c", "5e-324", "--n-max", "100000", "--seeds", "2"],
         "c: ell(n_max) = 0 is below the finest countable scale 2**-62 = 2.17e-19; "
         "raise c or lower n_max"),
        (["trial", "--lengths", "table:three.csv", "--n-max", "100"],
         "lengths: table sequence defined only up to n=3"),
        (["schedule", "--lengths", "table:three.csv"],
         "lengths: a schedule needs a table of at least 4 rows, got 3"),
        (["trial", "--lengths", "table:empty.csv"],
         "lengths: table sequence needs at least one value"),
        (["trial", "--lengths", "power:1:nan"],
         "lengths: power rule needs a finite gamma > 0 to be non-increasing, got nan"),
        (["trial", "--n-max", str(2 ** 53 + 1)],
         f"n_max: must be at most 2**53, got {2 ** 53 + 1}"),
        (["scan", "--target", "cantor:0.3333:20", "--c", "0.5,2.5", "--n-max", str(2 ** 54)],
         f"n_max: must be at most 2**53, got {2 ** 54}"),
        (["trial", "--config", "out_null.json"], "out: must be a string, got None"),
        (["trial", "--config", "out_list.json"], "out: must be a string, got ['a', 1]"),
        (["trial", "--target", "points:nan", "--lengths", "logn:0.2", "--n-max", "2000"],
         "target: points must lie in [0, 1)"),
        (["trial", "--target", "points:0.5,nan", "--lengths", "logn:0.2", "--n-max", "2000"],
         "target: points must lie in [0, 1)"),
        (["trial", "--target", "custom:nan.json", "--n-max", "2000"],
         "target: bad custom target in 'nan.json': interval endpoints must lie in [0, 1]"),
        (["trial", "--n-max", "1000", "--out", "missing/x"],
         "out: 'missing' is not an existing directory"),
        (["series", "--out", "three.csv/x"], "out: 'three.csv' is not an existing directory"),
        (["scan", "--out", os.path.join("missing", "deeper", "x")],
         f"out: {os.path.join('missing', 'deeper')!r} is not an existing directory"),
    ], ids=["series-d", "series-beta-nan", "series-n-9", "series-zero-length", "series-n-cap",
            "series-beta-overflow",
            "schedule-alpha-1.5", "schedule-alpha-0", "schedule-zero-length",
            "trial-zero-length", "dims-cast-overflow", "dims-subnormal", "dims-zero",
            "trial-short-table", "schedule-short-table", "trial-empty-table", "trial-power-nan",
            "trial-n-max-past-2**53", "scan-n-max-past-2**53", "config-out-null",
            "config-out-list", "target-nan-point", "target-nan-second-point",
            "target-nan-interval-end", "out-missing-dir", "out-under-a-file",
            "out-missing-parents"])
    def test_refused(self, tmp_path, capsys, monkeypatch, argv, err):
        # nothing runs before a refusal: every kernel raises if called
        def ran(*args, **kwargs):
            raise AssertionError("a command ran before its refusal")

        monkeypatch.setattr(simulate, "_prefixes", ran)
        monkeypatch.setattr(lengths, "_sum_series", ran)
        monkeypatch.setattr(analyze, "ProcessPoolExecutor", ran)
        (tmp_path / "three.csv").write_text("0.5\n0.25\n0.125\n")
        (tmp_path / "empty.csv").write_text("")
        (tmp_path / "nan.json").write_text(
            json.dumps({"intervals": [[0.1, 0.2], [0.3, math.nan]], "beta": 1}))
        for name, out in (("out_null.json", None), ("out_list.json", ["a", 1])):
            (tmp_path / name).write_text(json.dumps({"version": 1, "out": out, "n_max": 1000}))
        before = sorted(tmp_path.iterdir())
        assert run(tmp_path, *argv) == 2
        assert capsys.readouterr().err == f"error: {err}\n"
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("command", ["trial", "scan", "dims"])
    def test_n_max_past_the_memory(self, tmp_path, capsys, monkeypatch, command):
        # 2**53 centers pass the float-exact cap, but at that horizon every
        # length is below SLACK, so no pass switches: 12 B per center need
        # 96 PiB, beside which the residues of a scan's logn:0.25 add
        # 0.2%.  The refusal comes before the pass that would allocate them
        need = r"1\.01e\+08"
        def refuse(*args, **kwargs):
            raise AssertionError("a prefix array was allocated")

        monkeypatch.setattr(simulate, "_prefixes", refuse)
        monkeypatch.setattr(analyze, "ProcessPoolExecutor", refuse)
        assert run(tmp_path, command, "--n-max", str(2 ** 53)) == 2
        assert re.fullmatch(rf"error: n_max: {2 ** 53} centers need about {need} GiB for "
                            r"\d+ trial\(s\) at once, more than the .* GiB of physical memory\n",
                            capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == []


    @pytest.mark.parametrize("argv, err", [
        # n * ell(n) falls under power:1:2, so almost every gap is uncovered
        # at every checkpoint: at 1e8 its residues, not its 12 B per center,
        # pass 8 GiB
        (["--lengths", "power:1:2", "--n-max", "100000000"],
         "error: n_max: 100000000 centers need about 19 GiB for 1 trial(s) at once, "
         "more than the 8 GiB of physical memory\n"),
        # a circle trial under logn:0.5 leaves about sqrt(n) long gaps, so at
        # 1e9 it is admitted and reaches its pass
        (["--lengths", "logn:0.5", "--n-max", "1000000000"],
         "runtime failure: AssertionError: the pass started\n"),
    ], ids=["power-refused", "logn-admitted"])
    def test_residue_counts_toward_the_memory(self, tmp_path, capsys, monkeypatch, argv, err):
        def started(*args, **kwargs):
            raise AssertionError("the pass started")

        monkeypatch.setattr(simulate, "_prefixes", started)
        monkeypatch.setattr(simulate, "_physical_memory", lambda: 8 * 2 ** 30)
        assert run(tmp_path, "trial", *argv) == (2 if err.startswith("error") else 1)
        assert capsys.readouterr().err == err
        assert list(tmp_path.iterdir()) == []

# A small run of each command with every numeric field in the config file,
# each given in its field's type.
_SMALL_CONFIGS = {
    "trial": {"lengths": "logn:2.5", "n_max": 2000, "seed": 3, "checkpoint_ratio": 2.0,
              "first_checkpoint": 16},
    "scan": {"c": "0.5,2.5", "trials": 2, "n_max": 1000, "seed0": 3, "tail_checkpoints": 2,
             "checkpoint_ratio": 2.0, "first_checkpoint": 16, "jobs": 1},
    "dims": {"c": 0.5, "n_max": 20000, "seeds": 2, "seed0": 3, "tail_checkpoints": 1,
             "checkpoint_ratio": 2.0, "first_checkpoint": 16, "jobs": 1},
    "series": {"lengths": "logn:1", "beta": 1.0, "d": 0.5, "n": 1000},
    "schedule": {"lengths": "logn:0.5", "alpha": 0.9, "k": 3},
}

_NUMERIC_FIELDS = [(command, key) for command, table in _DEFAULTS.items()
                   for key, default in table.items() if not isinstance(default, str)]


def _run_config(tmp_path, command, *argv, **fields):
    cfg = {"version": 1, **_SMALL_CONFIGS[command], **fields}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    return run(tmp_path, command, "--config", "cfg.json", "--out", "x", *argv)


class TestConfigFileNumbers:
    """A config-file number is read as its flag would be: it fits its
    field's type or exits 2 naming the field, and the echo shows the value
    that ran."""

    def test_small_configs_give_every_numeric_field(self):
        for command, key in _NUMERIC_FIELDS:
            assert type(_SMALL_CONFIGS[command][key]) is cli._kind(_DEFAULTS[command][key])

    @pytest.mark.parametrize("command, field", _NUMERIC_FIELDS)
    def test_values_of_another_type_run_and_echo_in_the_field_type(self, tmp_path, command,
                                                                  field):
        value = _SMALL_CONFIGS[command][field]
        forms = [str(value)]
        if isinstance(value, int):
            forms.append(float(value))
        elif value.is_integer():
            forms.append(int(value))
        for i, form in enumerate(forms):
            folder = tmp_path / str(i)
            folder.mkdir()
            assert _run_config(folder, command, **{field: form}) == 0
            echo = json.loads((folder / "x.json").read_text())["config"]
            # jobs is an execution detail, left out of the echo
            if field != "jobs":
                assert echo[field] == value and type(echo[field]) is type(value)

    @pytest.mark.parametrize("command, field", _NUMERIC_FIELDS)
    def test_value_of_the_wrong_kind_exit_2(self, tmp_path, capsys, command, field):
        is_float = isinstance(_DEFAULTS[command][field], float)
        noun = "a number" if is_float else "an integer"
        bad = [True, [1], "abc", None, {"x": 1}, math.nan]
        if not is_float:
            bad += [2.5, math.inf, "2.0"]
        for value in bad:
            assert _run_config(tmp_path, command, **{field: value}) == 2
            assert capsys.readouterr().err == f"error: {field}: must be {noun}, got {value!r}\n"
            assert not list(tmp_path.glob("x.*"))

    @pytest.mark.parametrize("c, bad", [([True, 2], True), ([0.5, False], False)])
    def test_bool_in_the_c_list_is_refused(self, tmp_path, capsys, c, bad):
        # float(True) is 1.0, so the list once ran a scan at c = 1
        assert _run_config(tmp_path, "scan", c=c, n_max=2000) == 2
        assert capsys.readouterr().err == f"error: c: not a finite number: {bad!r}\n"
        assert not list(tmp_path.glob("x.*"))

    def test_non_integral_n_max_is_refused(self, tmp_path, capsys):
        (tmp_path / "c.json").write_text('{"version": 1, "n_max": 2000.9, "seed": 1.5}')
        assert run(tmp_path, "trial", "--config", "c.json", "--out", "t") == 2
        assert capsys.readouterr().err == "error: n_max: must be an integer, got 2000.9\n"
        assert not list(tmp_path.glob("t.*"))

    @pytest.mark.parametrize("command, field", [
        ("trial", "n_max"), ("scan", "n_max"), ("scan", "trials"), ("dims", "n_max"),
        ("dims", "seeds"), ("series", "n"), ("schedule", "k")])
    @pytest.mark.parametrize("how", ["flag", "config"])
    def test_field_below_one_is_refused_first(self, tmp_path, capsys, command, field, how):
        # reported before the bad target or length rule
        bad_text = {"target": "nope"} if "target" in _DEFAULTS[command] else {"lengths": "nope"}
        if how == "config":
            code = _run_config(tmp_path, command, **bad_text, **{field: 0})
        else:
            code = _run_config(tmp_path, command, "--" + field.replace("_", "-"), "0",
                               **bad_text)
        assert code == 2
        assert capsys.readouterr().err == f"error: {field}: must be >= 1, got 0\n"
        assert not list(tmp_path.glob("x.*"))


class TestSeries:
    def test_convergent_verdict(self, tmp_path, capsys):
        code = run(tmp_path, "series", "--lengths", "logn:5", "--beta", "1",
                   "--d", "0.5", "--n", "200000", "--out", "se")
        assert code == 0
        out = capsys.readouterr().out
        assert "covering series: convergent" in out
        payload = json.loads((tmp_path / "se.json").read_text())
        assert payload["series"]["covering"]["verdict"] == "convergent"
        assert "heuristic" in payload["series"]["covering"]["note"]

    def test_csv_has_both_series(self, tmp_path):
        run(tmp_path, "series", "--lengths", "harmonic:1.5", "--beta", "0",
            "--d", "0.5", "--n", "10000", "--out", "se")
        body = (tmp_path / "se.csv").read_text()
        assert "covering," in body and "shepp," in body

    def test_a_last_decade_that_adds_nothing_reads_plus_zero(self, tmp_path, capsys):
        # every length clamps to CLAMP_MAX, so the covering terms past n = 100
        # vanish beside the first ones: the tail fraction is 0, never -0
        assert run(tmp_path, "series", "--lengths", "logn:1e308", "--n", "1000",
                   "--out", "s") == 0
        assert "covering series: convergent (tail fraction 0, " in capsys.readouterr().out
        assert '"tail_fraction": 0.0,' in (tmp_path / "s.json").read_text()

    def test_a_huge_beta_reads_a_finite_term_slope(self, tmp_path, capsys):
        # log terms near 1e308, whose plain least-squares fit overflows to inf
        assert run(tmp_path, "series", "--lengths", "logn:1", "--n", "1000", "--beta", "1e307",
                   "--out", "s") == 0
        out = capsys.readouterr().out
        assert "covering series: divergent" in out and "inf" not in out
        slope = json.loads((tmp_path / "s.json").read_text())["series"]["covering"]["term_slope"]
        assert slope == pytest.approx(8.248e306, rel=1e-3)

    def test_a_huge_term_slope_prints_short(self, tmp_path, capsys):
        # 6 significant digits from 1e6 in magnitude on, 3 decimals below,
        # where the default output stays as it was; the JSON keeps every digit
        assert run(tmp_path, "series", "--lengths", "logn:1", "--n", "1000", "--beta", "1e307",
                   "--out", "s") == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "covering series: divergent (tail fraction 1, term slope 8.248e+306)"
        assert out[1].endswith(", term slope 3.748)")
        assert cli._slope(999999.5) == "999999.500" and cli._slope(-1e6) == "-1e+06"
        assert (cli._slope(math.inf), cli._slope(-math.inf)) == ("inf", "-inf")

    def test_term_cap_exit_2(self, tmp_path, capsys):
        code = run(tmp_path, "series", "--lengths", "logn:1", "--n", "100000001",
                   "--out", "s")
        assert code == 2
        assert "too large" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("argv, message", [
        (["--d", "1.5", "--n", "100000000"], "d: must be in"),
        (["--beta", "-1", "--n", "100000000"], "beta: must be"),
        (["--n", "9"], "n: series scan needs N >= 10"),
        (["--lengths", "power:1:1000", "--n", "100"], "lengths: power:1:1000 gives ell(n) = 0"),
        (["--beta", "nan", "--n", "100000000"], "beta: must be finite"),
        (["--beta", "inf", "--n", "100000000"], "beta: must be finite"),
        (["--beta", "1e308", "--n", "100000000"], "beta: 1e+308 overflows"),
    ])
    def test_refuses_before_either_series_starts(self, tmp_path, capsys, argv, message):
        # a refused run must not first sum 1e8 terms on the second thread
        with mock.patch.object(lengths, "_sum_series", side_effect=AssertionError) as sums, \
                mock.patch.object(lengths, "ThreadPoolExecutor",
                                  side_effect=AssertionError) as pool:
            code = run(tmp_path, "series", "--lengths", "logn:1", *argv, "--out", "s")
        assert code == 2
        assert message in capsys.readouterr().err
        assert not sums.called and not pool.called

    @pytest.mark.parametrize("rule, n", [("logn:1", "1062500"), ("harmonic:0.5", "1000001"),
                                         ("logn:1", "100000")])
    def test_threads_do_not_show_in_the_bytes(self, tmp_path, capsys, rule, n):
        # two chunks (the last one term long) and one: the split is always by
        # series, the covering walk on the second thread
        outputs = []
        for pool in (lengths.ThreadPoolExecutor, _InlinePool):
            folder = tmp_path / pool.__name__
            folder.mkdir()
            with mock.patch.object(lengths, "ThreadPoolExecutor", pool):
                assert run(folder, "series", "--lengths", rule, "--n", n, "--out", "s") == 0
            outputs.append(((folder / "s.csv").read_bytes(), (folder / "s.json").read_bytes(),
                            capsys.readouterr().out))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("n", ["1000", "2000000"], ids=["one-chunk", "two-chunks"])
    @pytest.mark.parametrize("exc, code", [(ValueError("boom"), 1),
                                           (ConfigError("lengths", "bad rule"), 2)])
    def test_second_thread_errors_keep_their_exit_code(self, tmp_path, capsys, exc, code, n):
        threads = []
        walk = lengths._walk
        main_thread = threading.get_ident()

        def failing_on_the_second_thread(*args):
            if threading.get_ident() != main_thread:
                threads.append(threading.get_ident())
                raise exc
            return walk(*args)

        with mock.patch.object(lengths, "_walk", failing_on_the_second_thread):
            assert run(tmp_path, "series", "--lengths", "logn:1", "--n", n,
                       "--out", "s") == code
        assert len(threads) == 1
        assert str(exc) in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()


class _InlinePool:
    """Stands in for lengths.ThreadPoolExecutor: runs each submitted call at
    once, on the calling thread, so the covering walk runs whole before the
    Shepp prefix and walk."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        job = Future()
        try:
            job.set_result(fn(*args))
        except Exception as exc:
            job.set_exception(exc)
        return job


class TestSchedule:
    def test_prints_verified_sum(self, tmp_path, capsys):
        code = run(tmp_path, "schedule", "--lengths", "logn:0.5", "--alpha", "0.9",
                   "--k", "4", "--out", "sch")
        assert code == 0
        out = capsys.readouterr().out
        assert "sum_k" in out
        payload = json.loads((tmp_path / "sch.json").read_text())
        assert payload["schedule"]["rare_block_sum"] < 1.0
        assert len(payload["schedule"]["indices"]) == 4

    def test_table_shorter_than_the_delta_range(self, tmp_path, capsys):
        (tmp_path / "t.csv").write_text("".join(f"{0.9 * n ** -0.5!r}\n" for n in range(1, 2001)))
        argv = ["schedule", "--lengths", "table:t.csv", "--alpha", "0.9", "--out", "sch"]
        assert run(tmp_path, *argv, "--k", "2") == 0
        assert json.loads((tmp_path / "sch.json").read_text())["schedule"]["indices"] == [2, 83]
        # a block index past the last row is refused as the table's
        assert run(tmp_path, *argv, "--k", "3") == 2
        assert capsys.readouterr().err == (
            "error: lengths: table sequence defined only up to n=2000\n")

    def test_infeasible_exit_1(self, tmp_path, capsys):
        assert run(tmp_path, "schedule", "--lengths", "logn:0.9",
                   "--alpha", "0.9", "--k", "6", "--out", "sch") == 1
        assert capsys.readouterr().err.startswith(
            "runtime failure: ScheduleError: no admissible n_6 below cap 1e+15")


class TestCsvFormat:
    def test_seventeen_significant_digits(self, tmp_path):
        run(tmp_path, "trial", "--target", "circle", "--lengths", "logn:2.5",
            "--n-max", "1000", "--seed", "3", "--out", "t")
        rows = [ln for ln in (tmp_path / "t.csv").read_text().splitlines()
                if ln and not ln.startswith("#")][1:]
        ell = rows[0].split(",")[1]
        # round-trip exactness of float64
        assert float(ell) == 2.5 * __import__("math").log(64) / 64


def _digest(path) -> str:
    """sha256 of an output file without its prng_version line, which names
    the numpy release and so would tie the pin to one numpy version."""
    lines = path.read_bytes().splitlines(keepends=True)
    kept = b"".join(ln for ln in lines if b"prng_version" not in ln)
    return hashlib.sha256(kept).hexdigest()


# Small runs of every command at seed 0 and the sha256 of each output file
# (see _digest).  A change that moves any output byte fails here.  The scan
# includes a c that the pre-fractal guard skips, and every run is small
# enough to finish in well under a second yet changes its bytes when one
# center of the stream moves.
_GOLDEN_RUNS = {
    "trial": ["--target", "circle", "--lengths", "logn:0.5", "--n-max", "200000"],
    "scan": ["--target", "cantor:0.3333333333:10", "--c", "0.05:2.05:0.25", "--trials", "4",
             "--n-max", "5000"],
    # the default target and c grid
    "scan-circle": ["--n-max", "20000"],
    "scan-points": ["--target", "points:0,0.1,0.5,0.77", "--n-max", "20000"],
    "dims": ["--c", "0.3", "--n-max", "20000", "--seeds", "3", "--tail-checkpoints", "2"],
    "series": ["--lengths", "logn:1", "--n", "200000"],
    # three chunks of the series walk, the last one short, with marks in each
    "series-chunks": ["--lengths", "harmonic:1.5", "--beta", "0.5", "--d", "0.6",
                      "--n", "2500001"],
    # a large beta below the one whose covering terms overflow
    "series-beta-400": ["--lengths", "logn:1", "--n", "1000", "--beta", "400"],
    "schedule": ["--lengths", "logn:0.5", "--alpha", "0.9", "--k", "4"],
}

_GOLDEN = {
    "trial": {"g.csv": "95bb9d10b3cbe2019c154afb3721c3b2126a404670065841385114ea84fa0c2c",
              "g.json": "713e7ed2c8bc6c3da60420de932ac4358cc9c2f48dadfb5a257dbd38ed7d26a4"},
    "scan": {"g.csv": "babc90794a438c9b26645736232c679006d8a2947b2af5eb5dc631761d5f257b",
             "g.json": "f0c75796cf01fe0a33d96e66cdabfb3220630db527babde2e110127e9998c50a",
             "g.svg": "5dad2fb3af17565107df0057175269ee02389c56a96729b102bfcead14df31cc"},
    "scan-circle": {
        "g.csv": "dad5c9aee5d10f030e434f5be35947f3e96c95a602afeb0adfa75716bbd2d1db",
        "g.json": "41358a359e1a3a5160ea95172981fbdbc80740c8e94a2da532f98f5c88919c51",
        "g.svg": "aa291e0c3766d8f54a5cb2a6a670e537fbf403467ac1d5d9dfcebe502c56d7c8"},
    "scan-points": {
        "g.csv": "3240df8882c448821a1422fd0c4e33720de7fafb9a2c4bef5489997a6a2bcd2a",
        "g.json": "fe19ececf916d1b16cf6415e2237eb4d867469e4130d448f48316cb30a8c5dc5",
        "g.svg": "fe330213f417ab1bb8f10c502ec1594496cda1a6b2672d4d9fb761eeae014f33"},
    "dims": {"g.csv": "631ae29f9bbda2c9da9d25f4f495d83f6df6c71f5ac797e101a27758f63f14eb",
             "g.json": "4c0db6b6ce872e7878425e2486ffa87dd3a01101879ff5f325fd417ae1789d64"},
    "series": {"g.csv": "859ce2895757e79e197cc65cbd978fae011aa5eb9b527265fc7c743465936aa6",
               "g.json": "bb1e500a7d2729c9e1445364c8f36f7238f1899fe443de2ec23e73236c96efbf"},
    "series-chunks": {
        "g.csv": "3cd8c2387724e8f6235bb36ffb620d3d255617a3fe688030f04f3a26ff6c2dd8",
        "g.json": "ffad2beedd5bda03ea160a521b7ed6c576e8db102539e46e27f34e5374ea6e36"},
    "series-beta-400": {
        "g.csv": "d48700b1024da6045b4f4303a5e1f78d5cf6b495630059a81d395989639bd484",
        "g.json": "d13ca27ac6c03151763575dcc6b34a7c31bba4d96160b6c4b525c15c59271e22"},
    "schedule": {"g.json": "40fba342e46ea98723ba93c37cb4e361a00d1646f24694119ce5d5c46869ba4e"},
}


class TestGoldenBytes:
    @pytest.mark.parametrize("case, jobs", [
        ("trial", None), ("scan", "1"), ("scan", "2"), ("scan-circle", "1"),
        ("scan-points", "1"), ("dims", "1"), ("dims", "2"),
        ("series", None), ("series-chunks", None), ("series-beta-400", None),
        ("schedule", None)])
    def test_outputs_match_pinned_digests(self, tmp_path, case, jobs):
        # a case is named for its command, with a suffix where there are two
        argv = [case.partition("-")[0], *_GOLDEN_RUNS[case], "--out", "g"]
        if jobs is not None:
            argv += ["--jobs", jobs]
        assert run(tmp_path, *argv) == 0
        got = {p.name: _digest(p) for p in sorted(tmp_path.glob("g.*"))}
        assert got == _GOLDEN[case]
