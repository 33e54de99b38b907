"""Tests for the experiment harness CLI: subcommands, exit codes, artifacts."""

import argparse
import json

import numpy as np
import pytest

from numax import (
    ConfigurationError,
    cli,
    iris_csv_path,
    load_dataset_csv,
    read_trajectory_csv,
    svm_dual_oracle,
    train_validation_split,
)
from numax.cli import main, read_grid_csv, read_regime_sweep_csv


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

    def test_empty_axis_is_config_error(self, tmp_path):
        config = tmp_path / "grid.ini"
        write_svm_config(config)
        config.write_text(config.read_text().replace("kp = 0,1", "kp ="))
        assert main(["grid", "--config", str(config),
                     "--output-dir", str(tmp_path / "out")]) == 2

    def test_grid_requires_nupi(self, tmp_path):
        config = tmp_path / "grid.ini"
        write_svm_config(config)
        config.write_text(config.read_text().replace("kind = nupi", "kind = ga"))
        assert main(["grid", "--config", str(config),
                     "--output-dir", str(tmp_path / "out")]) == 2


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

    def test_pool_capped_at_cell_count(self, tmp_path, monkeypatch):
        started = []

        class SerialPool:
            def __init__(self, processes):
                started.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return [fn(item) for item in items]

        monkeypatch.setattr(cli, "Pool", SerialPool)
        config = tmp_path / "grid.ini"
        write_svm_config(config, max_steps=10)
        assert main(["grid", "--config", str(config), "--output-dir", str(tmp_path / "out"),
                     "--grid.kp", "0,1", "--grid.ki", "0.01", "--jobs", "3"]) == 0
        assert started == [2]
        assert len(read_grid_csv(tmp_path / "out" / "grid.csv")) == 2


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
    monkeypatch.setattr(cli, "run", _no_step)  # every setting is checked before a step
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
    "unknown_subcommand": ["bogus"],
}


@pytest.mark.parametrize("case", sorted(_BAD_TOOL_ARGS))
def test_bad_tool_argument_exits_2_with_one_line(tmp_path, capsys, monkeypatch, case):
    monkeypatch.chdir(tmp_path)  # a default output path would land here
    monkeypatch.delenv("NUMAX_OUTPUT_DIR", raising=False)
    (tmp_path / "binary.dat").write_bytes(_BINARY)
    (tmp_path / "noheader.ini").write_text("kind = svm\n")
    before = sorted(tmp_path.iterdir())
    paths = {"missing": "missing.csv", "binary": "binary.dat", "noheader": "noheader.ini"}
    argv = [arg.format(**paths) for arg in _BAD_TOOL_ARGS[case]]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err and "RuntimeWarning" not in captured.err
    assert sorted(tmp_path.iterdir()) == before


_TRAJECTORY_HEAD = "# terminated_reason: max-steps\nt,f,linf_g,linf_h,lagrangian,lambda_0,x_0\n"
_GRID_HEAD = "# grid\nkp,ki,nu,final_metric,diverged_flag\n"
_SWEEP_HEAD = "# sweep\nkp,re_lambda1,im_lambda1,re_lambda2,im_lambda2,regime\n"

# (reader, file contents, the line each rejection must name)
_BAD_CSVS = {
    "trajectory_empty": (read_trajectory_csv, "", 1),
    "trajectory_short_row": (read_trajectory_csv, _TRAJECTORY_HEAD + "0,1,0,0,1,0,0\n1,2,3\n", 4),
    "trajectory_non_numeric": (read_trajectory_csv, _TRAJECTORY_HEAD + "0,1,0,0,x,0,0\n", 3),
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


class TestValidateGradients:
    def test_benchmark_passes(self):
        assert main(["validate-gradients", "--problem", "benchmark2d",
                     "--points", "5"]) == 0

    def test_svm_passes(self):
        assert main(["validate-gradients", "--problem", "svm", "--points", "3"]) == 0


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
