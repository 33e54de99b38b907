"""Tests for the experiment harness CLI: subcommands, exit codes, artifacts."""

import json

import numpy as np
import pytest

from numax import cli, read_trajectory_csv
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
        assert main(["grid", "--config", str(config), "--output-dir", str(tmp_path / "grid"),
                     "--grid.nu", "0.3", "--jobs", "1"]) == 0
        cells = {(r[0], r[1], r[2]): r[3] for r in read_grid_csv(tmp_path / "grid" / "grid.csv")}
        assert main(["run", "--config", str(config), "--output-dir", str(tmp_path / "run"),
                     "--dual.kp", "1", "--dual.ki", "0.1", "--dual.nu", "0.3"]) == 0
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert cells[(1.0, 0.1, 0.3)] == summary["metric_value"]

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


def _ragged_qp_args(tmp_path):
    qp_file = tmp_path / "ragged.json"
    qp_file.write_text(json.dumps({"H": [[1.0, 0.0], [0.0]], "A": [[1.0, 0.0]], "b": [1.0]}))
    return ["--problem.kind", "qp", "--problem.path", str(qp_file)]


_BAD_SETTINGS = {
    "max_steps_zero": ["--loop.max_steps", "0"],
    "unknown_scheme": ["--loop.scheme", "bogus"],
    "negative_primal_step": ["--loop.primal_step_size", "-1"],
    "non_numeric_tolerance": ["--loop.stop_tolerance", "abc"],
    "non_numeric_x0": ["--problem.x0", "a,b"],
    "ragged_qp_file": _ragged_qp_args,
}
_MALFORMED = ([(command, name) for command in ("run", "grid") for name in _BAD_SETTINGS]
              + [("grid", "jobs_zero"), ("grid", "jobs_negative")])


@pytest.mark.parametrize("command,case", _MALFORMED, ids=[f"{c}-{n}" for c, n in _MALFORMED])
def test_malformed_input_exits_2_with_one_line(tmp_path, capsys, command, case):
    config = tmp_path / "run.ini"
    write_svm_config(config, max_steps=10)
    if case.startswith("jobs_"):
        extra = ["--jobs", "0" if case == "jobs_zero" else "-1"]
    else:
        bad = _BAD_SETTINGS[case]
        extra = bad(tmp_path) if callable(bad) else bad
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--output-dir", str(out)] + extra) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err
    assert not (out / "grid.csv").exists() and not (out / "summary.json").exists()


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
