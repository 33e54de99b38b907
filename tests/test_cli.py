"""Tests for the experiment harness CLI: subcommands, exit codes, artifacts."""

import argparse
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from numax import (
    ConfigurationError,
    build_2d_benchmark,
    cli,
    iris_csv_path,
    load_dataset_csv,
    read_trajectory_csv,
    svm_dual_oracle,
    train_validation_split,
)
from numax.cli import main, read_grid_csv, read_regime_sweep_csv
from reference import grid_reference


def write_benchmark_config(path, max_steps=200, kp=3.0):
    path.write_text(f"""
[problem]
kind = benchmark2d

[loop]
scheme = alternating
max_steps = {max_steps}
primal_kind = gd
primal_step_size = 0.002

[dual]
kind = nupi
nu = 0.0
kp = {kp}
ki = 0.01

[run]
seed = 0
metric = max_violation
""")


def write_svm_config(path, max_steps=60):
    path.write_text(f"""
[problem]
kind = svm

[loop]
max_steps = {max_steps}
primal_kind = gd-momentum
primal_step_size = 1e-3
primal_momentum = 0.9

[dual]
kind = nupi
kp = 1.0
ki = 0.01

[grid]
kp = 0,1
ki = 0.01,0.1

[run]
seed = 4
metric = dist_to_lambda_star
""")


class TestRun:
    def test_benchmark_run_writes_artifacts(self, tmp_path):
        config = tmp_path / "run.ini"
        write_benchmark_config(config)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--output-dir", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["problem"] == "benchmark2d"
        assert summary["terminated_reason"] == "max-steps"
        table = read_trajectory_csv(out / "trajectory.csv")
        assert table.t[-1] == 200
        assert (out / "resolved_config.txt").read_text().startswith("[")

    def test_svm_run_reports_metric_and_accuracy(self, tmp_path):
        config = tmp_path / "run.ini"
        write_svm_config(config)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--output-dir", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert "dist_to_lambda_star" in summary
        assert "train_accuracy" in summary
        assert summary["metric"] == "dist_to_lambda_star"

    def test_svm_run_whose_state_overflows_has_no_accuracy(self, tmp_path, capsys):
        # w and b overflow to +-inf: numerical failure (exit 3), accuracy nan, no warning
        out = tmp_path / "out"
        assert main(["run", "--output-dir", str(out), "--loop.primal_kind", "gd",
                     "--loop.primal_step_size", "1e300", "--dual.kp", "0", "--dual.ki", "1e10",
                     "--loop.max_steps", "300"]) == 3
        summary = json.loads((out / "summary.json").read_text())
        assert summary["terminated_reason"] == "non-finite"
        assert summary["train_accuracy"] == summary["validation_accuracy"] == "nan"
        assert "Warning" not in capsys.readouterr().err

    def test_rerun_is_byte_identical(self, tmp_path):
        config = tmp_path / "run.ini"
        write_benchmark_config(config, max_steps=80)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(config), "--output-dir", str(out1)]) == 0
        assert main(["run", "--config", str(config), "--output-dir", str(out2)]) == 0
        for name in ("trajectory.csv", "summary.json", "resolved_config.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_override_applies(self, tmp_path):
        config = tmp_path / "run.ini"
        write_benchmark_config(config, max_steps=200)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--output-dir", str(out),
                     "--loop.max_steps", "7"]) == 0
        table = read_trajectory_csv(out / "trajectory.csv")
        assert table.t[-1] == 7
        assert "max_steps = 7" in (out / "resolved_config.txt").read_text()

    def test_unknown_key_is_config_error(self, tmp_path, capsys):
        config = tmp_path / "run.ini"
        config.write_text("[loop]\nmax_stepz = 5\n")
        assert main(["run", "--config", str(config)]) == 2
        assert "max_stepz" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.ini")]) == 2

    def test_non_finite_run_exits_3_with_artifacts(self, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text("""
[problem]
kind = benchmark2d

[loop]
max_steps = 400
primal_kind = gd
primal_step_size = 5.0

[dual]
kind = nupi
kp = 50.0
ki = 5.0

[run]
metric = max_violation
""")
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--output-dir", str(out)]) == 3
        assert (out / "trajectory.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["terminated_reason"] == "non-finite"

    def test_fused_pair_that_disagrees_exits_2(self, tmp_path, capsys, monkeypatch):
        def one_ulp_off():
            problem = build_2d_benchmark()
            return dataclasses.replace(problem, eval_primal_gradient=lambda x, theta: np.nextafter(
                problem.eval_primal_gradient(x, theta), np.inf))

        monkeypatch.setattr(cli, "build_2d_benchmark", one_ulp_off)
        out = tmp_path / "out"
        assert main(["run", "--problem.kind", "benchmark2d", "--output-dir", str(out)]) == 2
        assert capsys.readouterr().err == ("configuration error: the problem's fused "
                                           "grad_x L(x, theta) differs from its five "
                                           "callables' at the start\n")
        assert not (out / "trajectory.csv").exists()

    def test_final_record_obeys_the_non_finite_rule(self, tmp_path, capsys):
        # GD at 1e300 takes x to about 1e302 in the first step, where f
        # overflows: that record is the final one at max_steps 1 and not at
        # max_steps 2, and both runs end on it non-finite.
        for max_steps in ("1", "2"):
            assert main(["run", "--problem.kind", "benchmark2d", "--loop.primal_step_size",
                         "1e300", "--loop.max_steps", max_steps,
                         "--output-dir", str(tmp_path / max_steps)]) == 3
            assert capsys.readouterr().err == "run terminated on non-finite values\n"
        csv = (tmp_path / "1" / "trajectory.csv").read_bytes()
        assert csv == (tmp_path / "2" / "trajectory.csv").read_bytes()
        assert b"# terminated_reason: non-finite" in csv

    def test_env_fallback_output_dir(self, tmp_path, monkeypatch):
        config = tmp_path / "run.ini"
        write_benchmark_config(config, max_steps=10)
        target = tmp_path / "from_env"
        monkeypatch.setenv("NUMAX_OUTPUT_DIR", str(target))
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--config", str(config)]) == 0
        assert (target / "summary.json").exists()


class TestRunVariants:
    def test_ga_dual_on_svm(self, tmp_path):
        config = tmp_path / "run.ini"
        write_svm_config(config)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--output-dir", str(out),
                     "--dual.kind", "ga", "--dual.step_size", "0.01"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert "dist_to_lambda_star" in summary

    def test_qp_problem_from_json(self, tmp_path):
        qp_file = tmp_path / "qp.json"
        qp_file.write_text(json.dumps({
            "H": [[1.0, 0.0], [0.0, 1.0]],
            "A": [[1.0, 0.0]],
            "b": [1.0],
            "c": [0.0, 0.0],
        }))
        config = tmp_path / "run.ini"
        config.write_text(f"""
[problem]
kind = qp
path = {qp_file}

[loop]
max_steps = 2000
primal_kind = gd
primal_step_size = 0.05

[dual]
kind = nupi
kp = 2.0
ki = 0.5

[run]
metric = max_violation
""")
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--output-dir", str(out)]) == 0
        table = read_trajectory_csv(out / "trajectory.csv")
        # converges near the constrained optimum (1, 0) with mu = -1
        assert abs(table.x[-1][0] - 1.0) < 1e-2
        assert abs(table.mu[-1][0] + 1.0) < 1e-2

    def test_qp_missing_key_is_config_error(self, tmp_path):
        qp_file = tmp_path / "qp.json"
        qp_file.write_text(json.dumps({"H": [[1.0]], "A": [[1.0]]}))
        config = tmp_path / "run.ini"
        config.write_text(f"[problem]\nkind = qp\npath = {qp_file}\n")
        assert main(["run", "--config", str(config),
                     "--output-dir", str(tmp_path / "out")]) == 2


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


class TestGrid:
    def test_grid_schema_and_order(self, tmp_path):
        config = tmp_path / "grid.ini"
        write_svm_config(config)
        out = tmp_path / "out"
        assert main(["grid", "--config", str(config), "--output-dir", str(out),
                     "--jobs", "1"]) == 0
        rows = read_grid_csv(out / "grid.csv")
        assert [(r[0], r[1]) for r in rows] == [(0.0, 0.01), (0.0, 0.1), (1.0, 0.01), (1.0, 0.1)]
        header = (out / "grid.csv").read_text().splitlines()
        assert header[1] == "kp,ki,nu,final_metric,diverged_flag"

    def test_parallel_matches_serial(self, tmp_path):
        config = tmp_path / "grid.ini"
        write_svm_config(config)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["grid", "--config", str(config), "--output-dir", str(out1),
                     "--jobs", "1"]) == 0
        assert main(["grid", "--config", str(config), "--output-dir", str(out2),
                     "--jobs", "2"]) == 0
        assert (out1 / "grid.csv").read_bytes() == (out2 / "grid.csv").read_bytes()

    def test_divergent_cells_flagged(self, tmp_path):
        config = tmp_path / "grid.ini"
        write_svm_config(config, max_steps=400)
        config.write_text(config.read_text().replace("kp = 0,1", "kp = 0")
                          .replace("ki = 0.01,0.1", "ki = 10.0"))
        out = tmp_path / "out"
        assert main(["grid", "--config", str(config), "--output-dir", str(out),
                     "--jobs", "1"]) == 0
        rows = read_grid_csv(out / "grid.csv")
        assert rows[0][4] == 1

    def test_non_finite_cells_flagged(self, tmp_path):
        # Each cell's run ends non-finite while its metric reads finite or NaN.
        blowup = ["--problem.kind", "benchmark2d", "--problem.x0", "2,0",
                  "--loop.max_steps", "50", "--grid.ki", "1e308"]
        cases = [["--problem.kind", "svm", "--loop.primal_kind", "gd", "--loop.max_steps", "200",
                  "--loop.primal_step_size", "1e300", "--grid.ki", "1e-3",
                  "--run.metric", "dist_to_lambda_star"],
                 [*blowup, "--run.metric", "max_violation"],
                 [*blowup, "--run.metric", "overshoot"]]
        for k, settings in enumerate(cases):
            settings = [*settings, "--run.seed", "0", "--grid.kp", "0"]
            grid_dir, run_dir = tmp_path / f"grid{k}", tmp_path / f"run{k}"
            assert main(["grid", "--output-dir", str(grid_dir), *settings]) == 0
            [(_, _, _, value, flag)] = read_grid_csv(grid_dir / "grid.csv")
            assert flag == 1
            cell = [arg.replace("--grid.", "--dual.") for arg in settings]
            assert main(["run", "--output-dir", str(run_dir), *cell]) == 3
            summary = json.loads((run_dir / "summary.json").read_text(),
                                 parse_constant=_reject_constant)  # strict JSON
            assert summary["terminated_reason"] == "non-finite"
            assert not math.isfinite(float(summary["final_f"]))
            np.testing.assert_equal(value, float(summary["metric_value"]))
            if "max_violation" in settings:  # the final h is NaN
                assert math.isnan(value) and math.isnan(float(summary["max_violation"]))

    def test_fused_pair_that_disagrees_exits_2(self, tmp_path, capsys, monkeypatch):
        # The grid's twin of `run`'s test: one line, exit 2, no grid.csv.
        def one_ulp_off():
            problem = build_2d_benchmark()
            return dataclasses.replace(problem, eval_primal_gradient=lambda x, theta: np.nextafter(
                problem.eval_primal_gradient(x, theta), np.inf))

        monkeypatch.setattr(cli, "build_2d_benchmark", one_ulp_off)
        out = tmp_path / "out"
        assert main(["grid", "--problem.kind", "benchmark2d", "--grid.kp", "0,3",
                     "--grid.ki", "0.01", "--output-dir", str(out)]) == 2
        assert capsys.readouterr().err == ("configuration error: the problem's fused "
                                           "grad_x L(x, theta) differs from its five "
                                           "callables' at the start\n")
        assert not (out / "grid.csv").exists()

    def test_cell_whose_final_evaluation_overflows_is_flagged(self, tmp_path):
        # ki = 1e300 sends x so far in the one step that f overflows at the
        # final evaluation: that cell's run ends non-finite and exits 3, so the
        # grid flags it although its overshoot reads 0.
        settings = ["--problem.kind", "benchmark2d", "--loop.max_steps", "1",
                    "--run.metric", "overshoot", "--grid.kp", "0"]
        assert main(["grid", "--output-dir", str(tmp_path / "grid"), *settings,
                     "--grid.ki", "0.01,1e300"]) == 0
        rows = read_grid_csv(tmp_path / "grid" / "grid.csv")
        assert [(row[1], row[3], row[4]) for row in rows] == [(0.01, 0.0, 0), (1e300, 0.0, 1)]
        cell = [arg.replace("--grid.", "--dual.") for arg in settings]
        for ki, code in (("0.01", 0), ("1e300", 3)):
            assert main(["run", "--output-dir", str(tmp_path / f"run_{ki}"), *cell,
                         "--dual.ki", ki]) == code

    def test_empty_axis_is_config_error(self, tmp_path):
        config = tmp_path / "grid.ini"
        write_svm_config(config)
        config.write_text(config.read_text().replace("kp = 0,1", "kp ="))
        assert main(["grid", "--config", str(config),
                     "--output-dir", str(tmp_path / "out")]) == 2

    def test_swept_gains_out_of_range_warn_once(self, tmp_path, capsys):
        config = tmp_path / "grid.ini"
        write_svm_config(config)
        assert main(["grid", "--config", str(config), "--output-dir", str(tmp_path / "out"),
                     "--grid.ki", "0,0.01"]) == 0
        warnings = [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("warning: ")]
        assert warnings == ["warning: ki (2 of 4 rows) is not positive; "
                            "the integral term will not ascend"]

    def test_grid_requires_nupi(self, tmp_path):
        config = tmp_path / "grid.ini"
        write_svm_config(config)
        config.write_text(config.read_text().replace("kind = nupi", "kind = ga"))
        assert main(["grid", "--config", str(config),
                     "--output-dir", str(tmp_path / "out")]) == 2


# Small grids, each with a diverging cell: (settings, the metrics the problem accepts)
_REFERENCE_GRIDS = {
    "svm": (["--problem.kind", "svm", "--run.seed", "4", "--loop.max_steps", "150",
             "--loop.primal_kind", "gd-momentum", "--loop.primal_step_size", "1e-3",
             "--grid.kp", "0,100", "--grid.ki", "0.01,10"],
            ("dist_to_lambda_star", "max_violation", "overshoot")),
    "benchmark2d": (["--problem.kind", "benchmark2d", "--loop.max_steps", "300",
                     "--loop.primal_step_size", "0.002", "--grid.kp", "3,1e4",
                     "--grid.ki", "0.01,100", "--grid.nu", "0,0.5"],
                    ("max_violation", "overshoot")),
    "qp": (["--problem.kind", "qp", "--problem.path", "{qp}", "--loop.max_steps", "300",
            "--loop.primal_step_size", "0.05", "--grid.kp", "2,1e3", "--grid.ki", "0.5,100"],
           ("max_violation", "overshoot")),
}
_REFERENCE_GRID_CASES = [(kind, metric) for kind, (_, metrics) in _REFERENCE_GRIDS.items()
                         for metric in metrics]


@pytest.mark.parametrize("kind,metric", _REFERENCE_GRID_CASES,
                         ids=[f"{k}-{m}" for k, m in _REFERENCE_GRID_CASES])
def test_grid_matches_per_cell_reference(tmp_path, kind, metric):
    qp = tmp_path / "qp.json"
    qp.write_text('{"H": [[1.0, 0.0], [0.0, 1.0]], "A": [[1.0, 0.0]], "b": [1.0]}')
    settings = [arg.format(qp=qp) for arg in _REFERENCE_GRIDS[kind][0]]
    settings += ["--run.metric", metric]
    for jobs in ("1", "2"):
        assert main(["grid", "--output-dir", str(tmp_path / jobs), "--jobs", jobs, *settings]) == 0
    config = cli._load_config(None, cli._split_overrides(settings))
    grid_reference.write_grid_csv(config, tmp_path / "reference.csv")
    expected = (tmp_path / "reference.csv").read_bytes()
    assert (tmp_path / "1" / "grid.csv").read_bytes() == expected
    assert (tmp_path / "2" / "grid.csv").read_bytes() == expected
    if metric == "max_violation":
        flags = [row[4] for row in read_grid_csv(tmp_path / "1" / "grid.csv")]
        assert 0 in flags and 1 in flags


class TestGridMatchesRun:
    def test_cell_metric_equals_run_metric(self, tmp_path):
        config = tmp_path / "grid.ini"
        write_svm_config(config, max_steps=120)
        for metric in ("dist_to_lambda_star", "overshoot"):
            grid_dir = tmp_path / metric / "grid"
            assert main(["grid", "--config", str(config), "--output-dir", str(grid_dir),
                         "--grid.nu", "0,0.3", "--run.metric", metric, "--jobs", "1"]) == 0
            rows = read_grid_csv(grid_dir / "grid.csv")
            assert len(rows) == 8
            for kp, ki, nu, value, _ in rows:
                run_dir = tmp_path / metric / f"run_{kp}_{ki}_{nu}"
                assert main(["run", "--config", str(config), "--output-dir", str(run_dir),
                             "--run.metric", metric, "--dual.kp", repr(kp),
                             "--dual.ki", repr(ki), "--dual.nu", repr(nu)]) == 0
                summary = json.loads((run_dir / "summary.json").read_text())
                assert value == summary["metric_value"], (metric, kp, ki, nu)


# A QP run with a metric that a QP problem can report, so that the QP file is read
_QP = ["--run.metric", "max_violation", "--problem.kind", "qp", "--problem.path"]


def _qp_args(payload):
    """Settings that point a run at a QP file holding `payload` (json.dumps
    writes float nan and inf as the NaN and Infinity that json.load accepts)."""
    def args(tmp_path):
        qp_file = tmp_path / "qp.json"
        qp_file.write_text(json.dumps(payload))
        return [*_QP, str(qp_file)]
    return args


_BINARY = b"\x89PNG\x00\xff\xfe"  # not UTF-8
_NON_FINITE_DATA = b"1.0,2.0,1\nnan,0.5,-1\n3.0,1.0,1\n0.0,0.0,0\n"


def _file_args(content, *flags):
    """`flags` followed by the path of a file holding the bytes `content`."""
    def args(tmp_path):
        path = tmp_path / "input"
        path.write_bytes(content)
        return [*flags, str(path)]
    return args


# The INI rows pass a second --config; argparse keeps the last one.
_BAD_SETTINGS = {
    "max_steps_zero": ["--loop.max_steps", "0"],
    "unknown_scheme": ["--loop.scheme", "bogus"],
    "negative_primal_step": ["--loop.primal_step_size", "-1"],
    "non_numeric_tolerance": ["--loop.stop_tolerance", "abc"],
    "negative_tolerance": ["--loop.stop_tolerance", "-1"],
    "non_numeric_x0": ["--problem.x0", "a,b"],
    "ragged_qp_file": _qp_args({"H": [[1.0, 0.0], [0.0]], "A": [[1.0, 0.0]], "b": [1.0]}),
    "qp_nan_b": _qp_args({"H": [[1.0]], "A": [[1.0]], "b": [float("nan")]}),
    "qp_inf_H": _qp_args({"H": [[float("inf")]], "A": [[1.0]], "b": [1.0]}),
    "nan_primal_step": ["--loop.primal_step_size", "nan"],
    "inf_ki": ["--dual.ki", "inf"],
    "inf_x0": ["--problem.x0", "0,0,0,0,inf"],
    "non_boolean_restarts": ["--loop.dual_restarts", "maybe"],
    "fractional_record_every": ["--loop.record_every", "1.5"],
    "non_numeric_seed": ["--run.seed", "x"],
    "negative_seed": ["--run.seed", "-1"],
    "non_finite_data_unsplit": lambda tmp_path: [
        *_file_args(_NON_FINITE_DATA, "--problem.path")(tmp_path), "--problem.split", "false"],
    "unknown_metric": ["--run.metric", "bogus"],
    "unknown_dual_kind": ["--dual.kind", "bogus"],
    "unknown_primal_kind": ["--loop.primal_kind", "bogus"],
    "non_boolean_split": ["--problem.split", "maybe"],
    "missing_data_file": lambda tmp_path: ["--problem.path", str(tmp_path / "missing.csv")],
    "lambda_star_without_svm": ["--problem.kind", "benchmark2d",
                                "--run.metric", "dist_to_lambda_star"],
    "binary_data_file": _file_args(_BINARY, "--problem.path"),
    "qp_binary_file": _file_args(_BINARY, *_QP),
    "qp_not_an_object": _qp_args(5),
    "qp_unknown_key": _qp_args({"H": [[1.0]], "A": [[1.0]], "b": [1.0], "kp": 2.0}),
    "ini_no_section_header": _file_args(b"kind = svm\n", "--config"),
    "ini_duplicate_key": _file_args(b"[problem]\nkind = svm\nkind = qp\n", "--config"),
    "ini_binary": _file_args(_BINARY, "--config"),
    "ini_bad_interpolation": _file_args(b"[problem]\npath = 100%.csv\n", "--config"),
    "output_dir_is_a_file": _file_args(b"", "--output-dir"),  # the last --output-dir wins
    "ini_unknown_section": _file_args(b"[bogus]\nkind = svm\n", "--config"),
    "qp_not_json": _file_args(b"{H: [[1]]", *_QP),
    "qp_H_not_square": _qp_args({"H": [[1.0, 0.0]], "A": [[1.0, 0.0]], "b": [1.0]}),
    "qp_A_wrong_width": _qp_args({"H": [[1.0, 0.0], [0.0, 1.0]], "A": [[1.0]], "b": [1.0]}),
    "qp_without_path": ["--run.metric", "max_violation", "--problem.kind", "qp"],
    "x0_wrong_length": ["--problem.x0", "0,0"],
    "override_without_dashes": ["loop.max_steps", "5"],
    "override_without_value": ["--loop.max_steps"],
}
_BAD_GRID_SETTINGS = {
    "jobs_zero": ["--jobs", "0"],
    "jobs_negative": ["--jobs", "-1"],
    "nan_grid_kp": ["--grid.kp", "0,nan"],
    "grid_step_size": ["--grid.step_size", "0.1"],
    "jobs_not_integer": ["--jobs", "x"],
}
_MALFORMED = ([(command, name) for command in ("run", "grid") for name in _BAD_SETTINGS]
              + [("grid", name) for name in _BAD_GRID_SETTINGS])


def _no_step(*_args, **_kwargs):
    raise AssertionError("a run started")


@pytest.mark.parametrize("command,case", _MALFORMED, ids=[f"{c}-{n}" for c, n in _MALFORMED])
def test_malformed_input_exits_2_with_one_line(tmp_path, capsys, monkeypatch, command, case):
    for driver in ("run", "_run_columns"):  # every setting is checked before a step
        monkeypatch.setattr(cli, driver, _no_step)
    config = tmp_path / "run.ini"
    write_svm_config(config, max_steps=10)
    bad = {**_BAD_SETTINGS, **_BAD_GRID_SETTINGS}[case]
    extra = bad(tmp_path) if callable(bad) else bad
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--output-dir", str(out)] + extra) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err
    assert err.startswith("configuration error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err and "RuntimeWarning" not in err
    assert not out.exists()


@pytest.mark.parametrize("payload, reason", [
    ({"H": [[1.0, 0.0], [0.0]], "A": [[1.0, 0.0]], "b": [1.0]}, "H must be an array of numbers: "),
    ({"H": [[1.0]], "A": [[1.0]], "b": [float("nan")]}, "b must be finite"),
    ({"H": [[1.0]], "A": [[1.0]], "b": [1.0, 2.0]}, "b must have shape (1,), got (2,)"),
    ({"H": 5, "A": [[1.0]], "b": [1.0]}, "H must have shape (1, 1), got ()"),
    ({"H": [[1.0, 0.0], [0.0, 1.0]], "A": [1.0, 0.0], "b": [1.0]},
     "A must have shape (2, 2), got (2,)"),
], ids=["ragged-H", "nan-b", "b-length", "scalar-H", "flat-A"])
def test_qp_file_refusal_names_the_file(tmp_path, capsys, payload, reason):
    # QPSystem parses the file's arrays; the CLI only names the file
    assert main(["run", *_qp_args(payload)(tmp_path), "--output-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: QP file {tmp_path / 'qp.json'}: {reason}")
    assert err.count("\n") == 1


_SWEEP_ARGS = {"--h": "1", "--a": "-1", "--ki": "1", "--kp-min": "-5", "--kp-max": "5"}
_BAD_TOOL_ARGS = {
    "validate-gradients-negative_seed": ["validate-gradients", "--problem", "benchmark2d",
                                         "--seed", "-1"],
    "validate-gradients-negative_split_seed": ["validate-gradients", "--problem", "svm",
                                               "--seed", "-1"],
    "validate-gradients-zero_points": ["validate-gradients", "--problem", "benchmark2d",
                                       "--points", "0"],
    "validate-gradients-negative_points": ["validate-gradients", "--problem", "benchmark2d",
                                           "--points", "-3"],
    "validate-gradients-missing_data": ["validate-gradients", "--problem", "svm",
                                        "--data", "{missing}"],
    "oracle-svm-negative_seed": ["oracle-svm", "--seed", "-1"],
    "oracle-svm-negative_unsplit_seed": ["oracle-svm", "--no-split", "--seed", "-1"],
    "oracle-svm-missing_data": ["oracle-svm", "--data", "{missing}"],
    **{f"sweep-regime-{flag[2:]}_{value}":
       ["sweep-regime", *(token for pair in {**_SWEEP_ARGS, flag: value}.items() for token in pair)]
       for flag in _SWEEP_ARGS for value in ("nan", "inf")},
    "sweep-regime-non_integer_samples": ["sweep-regime", "--h", "1", "--a", "-1", "--ki", "1",
                                         "--samples", "x"],
    "sweep-regime-missing_h": ["sweep-regime", "--a", "-1", "--ki", "1"],
    "validate-gradients-non_integer_points": ["validate-gradients", "--problem", "benchmark2d",
                                              "--points", "abc"],
    "validate-gradients-unknown_problem": ["validate-gradients", "--problem", "bogus"],
    "validate-gradients-binary_data": ["validate-gradients", "--problem", "svm",
                                       "--data", "{binary}"],
    "validate-gradients-ini_no_section_header": ["validate-gradients", "--config", "{noheader}"],
    "oracle-svm-non_numeric_train_fraction": ["oracle-svm", "--train-fraction", "abc"],
    "oracle-svm-nan_train_fraction": ["oracle-svm", "--train-fraction", "nan"],
    "oracle-svm-non_integer_seed": ["oracle-svm", "--seed", "x"],
    "oracle-svm-binary_data": ["oracle-svm", "--data", "{binary}"],
    "oracle-svm-non_finite_data": ["oracle-svm", "--data", "{nonfinite}", "--no-split"],
    "oracle-svm-out_is_a_directory": ["oracle-svm", "--out", "."],
    "sweep-regime-out_is_a_directory": ["sweep-regime", "--h", "1", "--a", "-1", "--ki", "1",
                                        "--out", "."],
    "sweep-regime-too_many_samples": ["sweep-regime", "--h", "1", "--a", "-1", "--ki", "1",
                                      "--samples", str(cli._MAX_SWEEP_SAMPLES + 1)],
    "unknown_subcommand": ["bogus"],
    "sweep-regime-extra_arguments": ["sweep-regime", "--h", "1", "--a", "-1", "--ki", "1",
                                     "--loop.max_steps", "5"],
}


@pytest.mark.parametrize("case", sorted(_BAD_TOOL_ARGS))
def test_bad_tool_argument_exits_2_with_one_line(tmp_path, capsys, monkeypatch, case):
    monkeypatch.chdir(tmp_path)  # a default output path would land here
    monkeypatch.delenv("NUMAX_OUTPUT_DIR", raising=False)
    (tmp_path / "binary.dat").write_bytes(_BINARY)
    (tmp_path / "noheader.ini").write_text("kind = svm\n")
    (tmp_path / "nonfinite.csv").write_bytes(_NON_FINITE_DATA)
    before = sorted(tmp_path.iterdir())
    paths = {"missing": "missing.csv", "binary": "binary.dat", "noheader": "noheader.ini",
             "nonfinite": "nonfinite.csv"}
    argv = [arg.format(**paths) for arg in _BAD_TOOL_ARGS[case]]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err and "RuntimeWarning" not in captured.err
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("command", ["run", "grid"])
@pytest.mark.parametrize("kind", ["svm", "benchmark2d", "qp"])
def test_negative_seed_refused_for_every_problem_kind(tmp_path, capsys, command, kind):
    qp_file = tmp_path / "qp.json"
    qp_file.write_text(json.dumps({"H": [[1.0]], "A": [[1.0]], "b": [1.0]}))
    out = tmp_path / "out"
    argv = [command, "--problem.kind", kind, "--problem.path", str(qp_file) if kind == "qp" else "",
            "--run.seed", "-1", "--loop.max_steps", "5", "--grid.kp", "1", "--grid.ki", "1",
            "--output-dir", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "configuration error: seed must be >= 0, got -1\n"
    assert not out.exists()


_TRAJECTORY_HEAD = "# terminated_reason: max-steps\nt,f,linf_g,linf_h,lagrangian,lambda_0,x_0\n"
_GRID_HEAD = "# grid\nkp,ki,nu,final_metric,diverged_flag\n"
_SWEEP_HEAD = "# sweep\nkp,re_lambda1,im_lambda1,re_lambda2,im_lambda2,regime\n"

# (reader, file contents, the line each rejection must name)
_BAD_CSVS = {
    "trajectory_empty": (read_trajectory_csv, "", 1),
    "trajectory_short_row": (read_trajectory_csv, _TRAJECTORY_HEAD + "0,1,0,0,1,0,0\n1,2,3\n", 4),
    "trajectory_non_numeric": (read_trajectory_csv, _TRAJECTORY_HEAD + "0,1,0,0,x,0,0\n", 3),
    "trajectory_nan_t": (read_trajectory_csv, _TRAJECTORY_HEAD + "nan,1,0,0,1,0,0\n", 3),
    "trajectory_fractional_t": (read_trajectory_csv,
                                _TRAJECTORY_HEAD + "0,1,0,0,1,0,0\n1.5,1,0,0,1,0,0\n", 4),
    "grid_short_row": (read_grid_csv, _GRID_HEAD + "1,2,3\n", 3),
    "grid_non_numeric": (read_grid_csv, _GRID_HEAD + "1,2,0,nan,0\n1,x,0,0.5,0\n", 4),
    "grid_nan_flag": (read_grid_csv, _GRID_HEAD + "1,2,0,0.5,0\n1,2,0,0.5,nan\n", 4),
    "grid_no_header": (read_grid_csv, "# grid\n1,2,0,0.5,0\n", 2),
    "sweep_short_row": (read_regime_sweep_csv, _SWEEP_HEAD + "1,2,3\n", 3),
    "sweep_non_numeric": (read_regime_sweep_csv, _SWEEP_HEAD + "1,0,0,0,oops,overdamped\n", 3),
}


@pytest.mark.parametrize("case", sorted(_BAD_CSVS))
def test_malformed_csv_names_path_and_line(tmp_path, case):
    reader, text, line = _BAD_CSVS[case]
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ConfigurationError) as info:
        reader(path)
    assert str(info.value).startswith(f"{path}:{line}: ")
    assert "\n" not in str(info.value)


def test_trajectory_header_without_rows_is_empty_table(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(_TRAJECTORY_HEAD)
    table = read_trajectory_csv(path)
    assert table.terminated_reason == "max-steps"
    assert table.t.shape == (0,) and table.lam.shape == (0, 1) and table.x.shape == (0, 1)


def _numax_process(tmp_path, argv, warnings_flags=("-W", "error")):
    """`python [-W error] -m numax.cli *argv` in a fresh interpreter, run in
    `tmp_path`; returns the finished process."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, *warnings_flags, "-m", "numax.cli", *argv],
                          cwd=tmp_path, env=env, capture_output=True, text=True)


# Overflowing inputs: each must end in one "numerical failure:" line, exit 3
# and no sweep file, with no RuntimeWarning even under -W error
_OVERFLOWING_SWEEPS = {
    "huge_ki": ["--h", "1", "--a", "1", "--ki", "1e308"],
    "huge_h_and_a": ["--h", "1e308", "--a", "1e308", "--ki", "1"],
    "huge_kp_range": ["--h", "1", "--a", "1", "--ki", "1", "--kp-min=-1e308", "--kp-max=1e308"],
    "a_squared_underflows": ["--h", "1", "--a", "1e-200", "--ki", "1"],
}


@pytest.mark.parametrize("case", sorted(_OVERFLOWING_SWEEPS))
def test_overflowing_sweep_exits_3_with_one_line(tmp_path, case):
    proc = _numax_process(tmp_path, ["sweep-regime", *_OVERFLOWING_SWEEPS[case],
                                     "--out", "s.csv"])
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("numerical failure: ")
    assert proc.stderr.count("\n") == 1
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("args,message", [
    (["--h", "1e200", "--a", "1", "--ki", "1"], "eigenvalues overflow: "),
    (["--h", "1", "--a", "1e-200", "--ki", "1"], "critical gains overflow"),
], ids=["non_finite_eigenvalues", "critical_gains_overflow"])
def test_numerical_failure_exits_3_through_main(tmp_path, capsys, args, message):
    out = tmp_path / "s.csv"
    assert main(["sweep-regime", *args, "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"numerical failure: {message}")
    assert captured.err.count("\n") == 1
    assert not out.exists()


def test_gain_warning_is_printed_and_the_run_completes(tmp_path, capsys):
    assert main(["run", "--dual.ki", "-0.1", "--loop.max_steps", "5",
                 "--output-dir", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert captured.err.startswith("warning: ki = -0.1 is not positive")
    assert captured.err.count("\n") == 1
    assert (tmp_path / "summary.json").exists()


@pytest.mark.parametrize("warnings_flags", [("-W", "error"), ()], ids=["W-error", "default"])
def test_overflowing_qp_gradient_check_fails_without_warnings(tmp_path, warnings_flags):
    (tmp_path / "qp.json").write_text('{"H": [[1e308]], "A": [[1e308]], "b": [1e308]}')
    proc = _numax_process(tmp_path, ["validate-gradients", "--problem", "qp", "--data", "qp.json"],
                          warnings_flags)
    assert proc.returncode == 3
    assert proc.stdout.startswith("gradient check: FAIL")
    assert "failure: non-finite" in proc.stdout
    assert proc.stderr == ""


class TestSweepRegime:
    def test_rows_and_critical_annotations(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep-regime", "--h", "1", "--a", "-1", "--ki", "1",
                     "--kp-min", "-5", "--kp-max", "5", "--samples", "21",
                     "--out", str(out)]) == 0
        rows = read_regime_sweep_csv(out)
        kps = [r[0] for r in rows]
        assert kps == sorted(kps)
        assert 1.0 in kps and -3.0 in kps  # critical gains included as rows
        by_kp = {r[0]: r[3] for r in rows}
        assert by_kp[1.0] == "critically-damped"
        assert by_kp[-3.0] == "divergent-monotone"
        assert by_kp[-5.0] == "divergent-monotone"
        assert by_kp[5.0] == "overdamped"
        assert "critical_kp" in out.read_text().splitlines()[1]

    def test_a_zero_rejected(self, tmp_path):
        assert main(["sweep-regime", "--h", "1", "--a", "0", "--ki", "1",
                     "--out", str(tmp_path / "s.csv")]) == 2

    def test_too_few_samples_rejected(self, tmp_path):
        assert main(["sweep-regime", "--h", "1", "--a", "-1", "--ki", "1",
                     "--samples", "1", "--out", str(tmp_path / "s.csv")]) == 2


_PASS_SVM = """gradient check: PASS (10 points, tol 1e-05)
  max rel error, objective gradient: 1.704e-10
  max rel error, constraint Jacobian: 1.122e-09
"""
_PASS_BENCHMARK2D = """gradient check: PASS (10 points, tol 1e-05)
  max rel error, objective gradient: 2.396e-10
  max rel error, constraint Jacobian: 1.098e-09
"""
_PASS_QP = """gradient check: PASS (10 points, tol 1e-05)
  max rel error, objective gradient: 1.926e-10
  max rel error, constraint Jacobian: 1.398e-10
"""
_FAIL_OVERFLOWING_QP = """gradient check: FAIL (10 points, tol 1e-05)
  max rel error, objective gradient: 1.265e+00
  max rel error, constraint Jacobian: 8.241e-11
  failure: non-finite objective value at point 6, x=array([-2.32503077, -0.21879166])
"""


class TestValidateGradients:
    def test_benchmark_passes(self):
        assert main(["validate-gradients", "--problem", "benchmark2d",
                     "--points", "5"]) == 0

    def test_svm_passes(self):
        assert main(["validate-gradients", "--problem", "svm", "--points", "3"]) == 0

    @pytest.mark.parametrize("argv,payload,code,stdout", [
        (["--problem", "svm"], None, 0, _PASS_SVM),
        (["--problem", "benchmark2d"], None, 0, _PASS_BENCHMARK2D),
        (["--problem", "qp"], {"H": [[2.0, 0.5], [0.5, 1.0]], "A": [[1.0, 1.0]],
                               "b": [1.0], "c": [0.0, -1.0]}, 0, _PASS_QP),
        (["--problem", "qp"], {"H": [[1e308, 0.0], [0.0, 1.0]], "A": [[0.0, 1.0]],
                               "b": [0.0]}, 3, _FAIL_OVERFLOWING_QP),
    ], ids=["svm", "benchmark2d", "qp", "overflowing_qp"])
    def test_report_is_pinned(self, tmp_path, capsys, argv, payload, code, stdout):
        # Pinned stdout: a change in how f and c are sampled or differenced
        # moves the printed relative errors.
        if payload is not None:
            (tmp_path / "qp.json").write_text(json.dumps(payload))
            argv = [*argv, "--data", str(tmp_path / "qp.json")]
        assert main(["validate-gradients", *argv]) == code
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (stdout, "")


class TestOracleSvm:
    def test_oracle_json(self, tmp_path):
        out = tmp_path / "oracle.json"
        assert main(["oracle-svm", "--seed", "0", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["num_points"] == 70
        assert payload["kkt_residual"] <= 1e-8
        lam = np.array(payload["lambda_star"])
        assert np.all(lam >= 0.0) and np.any(lam > 1e-8)

    def test_no_split_uses_all_rows(self, tmp_path, capsys):
        assert main(["oracle-svm", "--no-split"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["num_points"] == 100


class TestToolAliases:
    def test_validate_gradients_seed_from_flag_override_or_config(self, tmp_path, capsys):
        config = tmp_path / "seed.ini"
        config.write_text("[run]\nseed = 4\n")
        reports = []
        for extra in (["--seed", "4"], ["--run.seed", "4"], ["--config", str(config)],
                      ["--seed", "4", "--run.seed", "0"], []):
            assert main(["validate-gradients", "--problem", "benchmark2d", *extra]) == 0
            reports.append(capsys.readouterr().out)
        # the flag wins over the same override; without either the seed is 0
        assert reports[0] == reports[1] == reports[2] == reports[3] != reports[4]

    def test_oracle_svm_solves_the_configured_split(self, capsys):
        assert main(["oracle-svm", "--seed", "3", "--train-fraction", "0.6"]) == 0
        payload = json.loads(capsys.readouterr().out)
        train = train_validation_split(load_dataset_csv(iris_csv_path()), 3, 0.6)[0]
        solution = svm_dual_oracle(train)
        assert payload["num_points"] == train.num_points
        assert payload["lambda_star"] == solution.lam.tolist()
        assert payload["w"] == solution.w.tolist() and payload["b"] == solution.b
        assert payload["kkt_residual"] == solution.kkt_residual

    def test_aliases_name_settings_and_every_subcommand_has_its_handler(self):
        parser = cli._build_parser()
        (commands,) = [action for action in parser._actions
                       if isinstance(action, argparse._SubParsersAction)]
        for name, sub in commands.choices.items():
            assert sub.get_default("handler") is getattr(cli, "cmd_" + name.replace("-", "_"))
            for action in sub._actions:
                if "." in action.dest:
                    section, key = action.dest.split(".")
                    assert key in cli._DEFAULTS.get(section, {}), (name, action.dest)
