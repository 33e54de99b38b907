"""The cells of `numax grid` as they were computed before the grid became
one column recursion: every cell is a `numax.run` of its own, one after
another in this process, and the rows are written as `cmd_grid` writes
`grid.csv`.

`_cell` is the per-cell worker the grid used to send to its process pool,
and `_metric` the metric rules as they read a whole `Trajectory` (the
overshoot over every record's g); both are kept verbatim apart from their
names and two later rule changes that `cmd_grid` shares: a cell whose run
ended non-finite is flagged whatever its metric, and `max_violation` keeps
a NaN in g or h. The settings are read through the CLI's own converters,
so only the cell loop, the metrics and the row writer are this module's
own. Test-only code.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from numax import NuPIConfig, TerminationReason, run, svm_dual_oracle
from numax.cli import _FLOATS, _INT, _build_problem, _dual_config, _loop_config, _setting


@np.errstate(over="ignore", invalid="ignore")  # divergent cells are flagged by the caller
def _metric(metric: str, trajectory, lambda_star) -> float:
    final = trajectory.final
    if metric == "dist_to_lambda_star":
        return float(np.linalg.norm(final.lam - lambda_star))
    if metric == "max_violation":  # a NaN in g or h propagates
        return float(np.max(np.concatenate([np.maximum(final.g, 0.0), np.abs(final.h)]),
                            initial=0.0))
    # overshoot, as a running max() over records: rows with a NaN are skipped, 0.0 beats -0.0
    per_record = np.max(np.maximum(-trajectory.column("g"), 0.0), axis=1, initial=-np.inf)
    return max(0.0, float(np.max(per_record[~np.isnan(per_record)], initial=0.0)))


def _cell(config, seed, loop_config, cell, metric, lambda_star):
    kp, ki, nu = cell
    try:
        bundle = _build_problem(config, seed)
        cell_config = replace(loop_config, dual_optimizer=NuPIConfig(nu=nu, kp=kp, ki=ki))
        trajectory = run(bundle.problem, bundle.x0, np.zeros(bundle.problem.num_constraints),
                         cell_config)
        value = _metric(metric, trajectory, lambda_star)
    except Exception as exc:  # recorded in-row, grid continues
        return (kp, ki, nu, float("nan"), 1, f"{type(exc).__name__}: {exc}")
    failed = trajectory.terminated_reason is TerminationReason.NON_FINITE
    diverged = 1 if (failed or not math.isfinite(value) or value > 1e3) else 0
    return (kp, ki, nu, value, diverged, "")


def write_grid_csv(config: dict, path) -> None:
    """`grid.csv` for `config`, a settings dict as `cli._load_config` returns."""
    seed = _setting(config, "run", "seed", *_INT)
    metric = config["run"]["metric"].lower()
    loop_config = _loop_config(config, _dual_config(config))
    bundle = _build_problem(config, seed)
    lambda_star = svm_dual_oracle(bundle.train_data).lam if bundle.kind == "svm" else None
    kp_values, ki_values, nu_values = (_setting(config, "grid", key, *_FLOATS)
                                       for key in ("kp", "ki", "nu"))
    nu_values = nu_values or [loop_config.dual_optimizer.nu]
    rows = []
    for kp in kp_values:
        for ki in ki_values:
            for nu in nu_values:
                rows.append(_cell(config, seed, loop_config, (kp, ki, nu), metric, lambda_star))
    with open(path, "w") as fh:
        fh.write(f"# grid over kp x ki x nu, metric = {metric}; "
                 "diverged_flag = 1 when the metric exceeds 1e3 or the run failed\n")
        fh.write("kp,ki,nu,final_metric,diverged_flag\n")
        for kp, ki, nu, value, diverged, _note in rows:
            fh.write(f"{kp:.17g},{ki:.17g},{nu:.17g},{value:.17g},{diverged}\n")
