"""Experiment harness.

Subcommands: run, grid, sweep-regime, validate-gradients, oracle-svm.
Run configurations live in a flat INI-style file (section headers, key=value
lines); every key can be overridden on the command line as
`--section.key value`. Exit codes: 0 success, 2 configuration error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from multiprocessing import Pool
from pathlib import Path

import numpy as np

from .analysis import QPSystem, classify_regime, critical_kp, eigen_1d
from .core import ConfigurationError, ConstrainedProblem, DualVector, NumericalError, validate_gradients
from .dual_optimizers import (
    AdamConfig,
    GAConfig,
    NuPIConfig,
    UMConfig,
    dual_config_warnings,
)
from .loop import (
    LoopConfig,
    PrimalKind,
    PrimalOptimizerConfig,
    Scheme,
    TerminationReason,
    Trajectory,
    run,
    write_trajectory_csv,
)
from .problems import (
    build_2d_benchmark,
    build_qp_problem,
    build_svm_problem,
    iris_csv_path,
    load_dataset_csv,
    svm_dual_oracle,
    svm_train_accuracy,
    train_validation_split,
)

BENCHMARK2D_DEFAULT_X0 = (-0.5, -2.0)

_KNOWN_KEYS = {
    "problem": {"kind", "path", "x0", "train_fraction", "split"},
    "loop": {"scheme", "max_steps", "record_every", "dual_restarts", "stop_tolerance",
             "primal_kind", "primal_step_size", "primal_momentum"},
    "dual": {"kind", "nu", "kp", "ki", "alpha", "beta", "gamma", "step_size"},
    "grid": {"kp", "ki", "nu", "step_size"},
    "run": {"seed", "output_dir", "metric"},
}

_DEFAULTS = {
    "problem": {"kind": "svm", "path": "", "x0": "", "train_fraction": "0.7", "split": "true"},
    "loop": {"scheme": "alternating", "max_steps": "1000", "record_every": "1",
             "dual_restarts": "false", "stop_tolerance": "", "primal_kind": "gd",
             "primal_step_size": "0.01", "primal_momentum": "0.9"},
    "dual": {"kind": "nupi", "nu": "0.0", "kp": "0.0", "ki": "0.01",
             "alpha": "0.01", "beta": "0.9", "gamma": "0.0", "step_size": "0.01"},
    "grid": {"kp": "", "ki": "", "nu": "", "step_size": ""},
    "run": {"seed": "0", "output_dir": "", "metric": "max_violation"},
}


def _load_config(path: str | None, overrides: list) -> dict:
    """Merge defaults, the config file, and --section.key overrides into a
    nested dict of raw strings. Unknown keys are configuration errors."""
    config = {section: dict(values) for section, values in _DEFAULTS.items()}
    if path:
        parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        read = parser.read(path)
        if not read:
            raise ConfigurationError(f"config file not found: {path}")
        for section in parser.sections():
            if section not in _KNOWN_KEYS:
                raise ConfigurationError(f"unknown config section [{section}]")
            for key, value in parser.items(section):
                if key not in _KNOWN_KEYS[section]:
                    raise ConfigurationError(f"unknown config key [{section}] {key}")
                config[section][key] = value.strip()
    for key, value in overrides:
        if "." not in key:
            raise ConfigurationError(f"override {key!r} must look like section.key")
        section, name = key.split(".", 1)
        if section not in _KNOWN_KEYS or name not in _KNOWN_KEYS[section]:
            raise ConfigurationError(f"unknown override --{key}")
        config[section][name] = value
    return config


def _parse_float(config, section, key):
    raw = config[section][key]
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigurationError(f"[{section}] {key} must be a number, got {raw!r}") from exc


def _parse_int(config, section, key):
    raw = config[section][key]
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigurationError(f"[{section}] {key} must be an integer, got {raw!r}") from exc


def _parse_bool(config, section, key):
    raw = config[section][key].lower()
    if raw in ("true", "1", "yes", "on"):
        return True
    if raw in ("false", "0", "no", "off"):
        return False
    raise ConfigurationError(f"[{section}] {key} must be a boolean, got {raw!r}")


def _parse_float_list(config, section, key):
    raw = config[section][key]
    if not raw:
        return []
    try:
        return [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigurationError(f"[{section}] {key} must be comma-separated numbers") from exc


def _dual_config(config):
    kind = config["dual"]["kind"].lower()
    if kind == "nupi":
        return NuPIConfig(nu=_parse_float(config, "dual", "nu"),
                          kp=_parse_float(config, "dual", "kp"),
                          ki=_parse_float(config, "dual", "ki"))
    if kind == "ga":
        return GAConfig(step_size=_parse_float(config, "dual", "step_size"))
    if kind == "um":
        return UMConfig(alpha=_parse_float(config, "dual", "alpha"),
                        beta=_parse_float(config, "dual", "beta"),
                        gamma=_parse_float(config, "dual", "gamma"))
    if kind == "adam":
        return AdamConfig(step_size=_parse_float(config, "dual", "step_size"))
    raise ConfigurationError(f"[dual] kind must be nupi|ga|um|adam, got {kind!r}")


def _loop_config(config, dual_config) -> LoopConfig:
    scheme_raw = config["loop"]["scheme"].lower()
    try:
        scheme = Scheme(scheme_raw)
    except ValueError as exc:
        raise ConfigurationError(
            f"[loop] scheme must be alternating|simultaneous, got {scheme_raw!r}") from exc
    kind_raw = config["loop"]["primal_kind"].lower()
    try:
        primal_kind = PrimalKind(kind_raw)
    except ValueError as exc:
        raise ConfigurationError(
            f"[loop] primal_kind must be gd|gd-momentum|adam, got {kind_raw!r}") from exc
    tol_raw = config["loop"]["stop_tolerance"]
    tol = _parse_float(config, "loop", "stop_tolerance") if tol_raw else None
    return LoopConfig(
        scheme=scheme,
        max_steps=_parse_int(config, "loop", "max_steps"),
        dual_optimizer=dual_config,
        primal_optimizer=PrimalOptimizerConfig(
            kind=primal_kind,
            step_size=_parse_float(config, "loop", "primal_step_size"),
            momentum=_parse_float(config, "loop", "primal_momentum"),
        ),
        dual_restarts=_parse_bool(config, "loop", "dual_restarts"),
        record_every=_parse_int(config, "loop", "record_every"),
        stop_tolerance=tol,
    )


@dataclass
class ProblemBundle:
    kind: str
    problem: ConstrainedProblem
    x0: np.ndarray
    train_data: object = None  # SvmDataset when kind == "svm"
    valid_data: object = None


def _load_qp_json(path) -> QPSystem:
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read QP file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"QP file {path} is not valid JSON: {exc}") from exc
    for field in ("H", "A", "b"):
        if field not in payload:
            raise ConfigurationError(f"QP file {path} is missing key {field!r}")
    try:
        n = len(payload["H"])
        return QPSystem(H=payload["H"], A=payload["A"], b=payload["b"],
                        c_lin=payload.get("c", [0.0] * n),
                        kp=float(payload.get("kp", 0.0)), ki=float(payload.get("ki", 1.0)))
    except (ValueError, TypeError) as exc:
        raise ConfigurationError(f"QP file {path} is malformed: {exc}") from exc


def _build_problem(config, seed: int) -> ProblemBundle:
    kind = config["problem"]["kind"].lower()
    if kind == "svm":
        path = config["problem"]["path"] or iris_csv_path()
        data = load_dataset_csv(path)
        if _parse_bool(config, "problem", "split"):
            train, valid = train_validation_split(
                data, seed=seed, train_fraction=_parse_float(config, "problem", "train_fraction"))
        else:
            train, valid = data, None
        problem = build_svm_problem(train)
        x0 = np.zeros(problem.dim_primal)
        bundle = ProblemBundle(kind=kind, problem=problem, x0=x0,
                               train_data=train, valid_data=valid)
    elif kind == "benchmark2d":
        problem = build_2d_benchmark()
        bundle = ProblemBundle(kind=kind, problem=problem,
                               x0=np.array(BENCHMARK2D_DEFAULT_X0))
    elif kind == "qp":
        path = config["problem"]["path"]
        if not path:
            raise ConfigurationError("[problem] path is required for kind = qp")
        sys_qp = _load_qp_json(path)
        problem = build_qp_problem(sys_qp)
        bundle = ProblemBundle(kind=kind, problem=problem, x0=np.zeros(problem.dim_primal))
    else:
        raise ConfigurationError(f"[problem] kind must be svm|benchmark2d|qp, got {kind!r}")
    if config["problem"]["x0"]:
        x0 = _parse_float_list(config, "problem", "x0")
        if len(x0) != bundle.problem.dim_primal:
            raise ConfigurationError(
                f"[problem] x0 has {len(x0)} entries, problem has {bundle.problem.dim_primal}")
        bundle.x0 = np.array(x0)
    return bundle


def _resolve_output_dir(config, cli_value) -> Path:
    target = cli_value or config["run"]["output_dir"] or os.environ.get("NUMAX_OUTPUT_DIR") \
        or "numax_output"
    path = Path(target)
    path.mkdir(parents=True, exist_ok=True)
    return path


_METRICS = ("dist_to_lambda_star", "max_violation", "overshoot")


@np.errstate(over="ignore", invalid="ignore")  # divergent cells are flagged by the caller
def _compute_metric(metric: str, trajectory: Trajectory, lambda_star) -> float:
    final = trajectory.final
    if metric == "dist_to_lambda_star":
        if lambda_star is None:
            raise ConfigurationError("metric dist_to_lambda_star requires an SVM problem")
        return float(np.linalg.norm(final.lam - lambda_star))
    if metric == "max_violation":
        viol_g = float(np.max(np.maximum(final.g, 0.0), initial=0.0))
        viol_h = float(np.max(np.abs(final.h), initial=0.0))
        return max(viol_g, viol_h)
    if metric == "overshoot":
        worst = 0.0
        for rec in trajectory.steps:
            if rec.g.size:
                worst = max(worst, float(np.max(np.maximum(-rec.g, 0.0))))
        return worst
    raise ConfigurationError(f"[run] metric must be one of {_METRICS}, got {metric!r}")


def _echo_config(config, path: Path) -> None:
    lines = []
    for section in sorted(config):
        lines.append(f"[{section}]")
        for key in sorted(config[section]):
            lines.append(f"{key} = {config[section][key]}")
        lines.append("")
    path.write_text("\n".join(lines))


def cmd_run(args) -> int:
    config = _load_config(args.config, args.overrides)
    seed = _parse_int(config, "run", "seed")
    metric = config["run"]["metric"].lower()
    if metric not in _METRICS:
        raise ConfigurationError(f"[run] metric must be one of {_METRICS}, got {metric!r}")
    dual_config = _dual_config(config)
    loop_config = _loop_config(config, dual_config)
    bundle = _build_problem(config, seed)
    out_dir = _resolve_output_dir(config, args.output_dir)

    for warning in dual_config_warnings(dual_config):
        print(f"warning: {warning}", file=sys.stderr)

    lambda_star = None
    if bundle.kind == "svm":
        lambda_star = svm_dual_oracle(bundle.train_data).lam

    duals0 = DualVector.zeros(bundle.problem.num_ineq, bundle.problem.num_eq)
    trajectory = run(bundle.problem, bundle.x0, duals0, loop_config)

    summary = {
        "problem": bundle.kind,
        "scheme": loop_config.scheme.value,
        "steps": int(trajectory.final.t),
        "terminated_reason": trajectory.terminated_reason.value,
        "final_f": trajectory.final.f,
        "metric": metric,
        "metric_value": None,
        "max_violation": _compute_metric("max_violation", trajectory, lambda_star),
    }
    if bundle.kind == "svm":
        w = trajectory.final.x[:-1]
        b = float(trajectory.final.x[-1])
        summary["train_accuracy"] = svm_train_accuracy(bundle.train_data, w, b)
        if bundle.valid_data is not None:
            summary["validation_accuracy"] = svm_train_accuracy(bundle.valid_data, w, b)
        summary["dist_to_lambda_star"] = _compute_metric(
            "dist_to_lambda_star", trajectory, lambda_star)
    summary["metric_value"] = _compute_metric(metric, trajectory, lambda_star)

    write_trajectory_csv(trajectory, out_dir / "trajectory.csv")
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    _echo_config(config, out_dir / "resolved_config.txt")
    print(f"run complete: {out_dir / 'summary.json'}")
    for key in sorted(summary):
        print(f"  {key} = {summary[key]}")
    if trajectory.terminated_reason is TerminationReason.NON_FINITE:
        print("run terminated on non-finite values", file=sys.stderr)
        return 3
    return 0


def _grid_worker(payload):
    """Run one grid cell: `numax run`'s problem and loop settings with the
    cell's nuPI gains. Problems hold closures, so each worker rebuilds its
    own. Crashes are recorded in-row so the grid continues."""
    config, seed, loop_config, cell, metric, lambda_star = payload
    kp, ki, nu = cell
    try:
        bundle = _build_problem(config, seed)
        cell_config = replace(loop_config, dual_optimizer=NuPIConfig(nu=nu, kp=kp, ki=ki))
        duals0 = DualVector.zeros(bundle.problem.num_ineq, bundle.problem.num_eq)
        trajectory = run(bundle.problem, bundle.x0, duals0, cell_config)
        value = _compute_metric(metric, trajectory, lambda_star)
    except Exception as exc:  # recorded in-row, grid continues
        return (kp, ki, nu, float("nan"), 1, f"{type(exc).__name__}: {exc}")
    diverged = 1 if (not math.isfinite(value) or value > 1e3) else 0
    return (kp, ki, nu, value, diverged, "")


def cmd_grid(args) -> int:
    if args.jobs is not None and args.jobs < 1:
        raise ConfigurationError(f"--jobs must be >= 1, got {args.jobs}")
    config = _load_config(args.config, args.overrides)
    seed = _parse_int(config, "run", "seed")
    metric = config["run"]["metric"].lower()
    if metric not in _METRICS:
        raise ConfigurationError(f"[run] metric must be one of {_METRICS}, got {metric!r}")
    if config["dual"]["kind"].lower() != "nupi":
        raise ConfigurationError("grid mode sweeps nuPI gains; set [dual] kind = nupi "
                                 "(gradient ascent is the kp = 0 row)")
    kp_values = _parse_float_list(config, "grid", "kp")
    ki_values = _parse_float_list(config, "grid", "ki")
    nu_values = _parse_float_list(config, "grid", "nu") or [_parse_float(config, "dual", "nu")]
    if not kp_values or not ki_values:
        raise ConfigurationError("[grid] kp and ki must be nonempty lists")
    step_list = _parse_float_list(config, "grid", "step_size")
    if len(step_list) > 1:
        raise ConfigurationError("[grid] step_size supports a single override value "
                                 "(the grid CSV schema has no step_size column)")
    if step_list:
        config["loop"]["primal_step_size"] = repr(step_list[0])

    loop_config = _loop_config(config, _dual_config(config))
    bundle = _build_problem(config, seed)
    out_dir = _resolve_output_dir(config, args.output_dir)

    lambda_star = None
    if bundle.kind == "svm":
        lambda_star = svm_dual_oracle(bundle.train_data).lam

    cells = [(kp, ki, nu) for kp in kp_values for ki in ki_values for nu in nu_values]
    payloads = [(config, seed, loop_config, cell, metric, lambda_star) for cell in cells]
    jobs = min(args.jobs or os.cpu_count() or 1, len(cells))
    if jobs > 1:
        with Pool(processes=jobs) as pool:
            rows = pool.map(_grid_worker, payloads)
    else:
        rows = [_grid_worker(p) for p in payloads]

    grid_path = out_dir / "grid.csv"
    with open(grid_path, "w") as fh:
        fh.write(f"# grid over kp x ki x nu, metric = {metric}; "
                 "diverged_flag = 1 when the metric exceeds 1e3 or the run failed\n")
        fh.write("kp,ki,nu,final_metric,diverged_flag\n")
        for kp, ki, nu, value, diverged, note in rows:
            fh.write(f"{kp:.17g},{ki:.17g},{nu:.17g},{value:.17g},{diverged}\n")
            if note:
                print(f"cell kp={kp} ki={ki} nu={nu} failed: {note}", file=sys.stderr)
    _echo_config(config, out_dir / "resolved_config.txt")
    print(f"grid complete: {grid_path} ({len(rows)} cells)")
    return 0


def read_grid_csv(path):
    """Read a grid CSV back into a list of (kp, ki, nu, metric, flag) tuples."""
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("kp,"):
                continue
            kp, ki, nu, value, flag = line.split(",")
            rows.append((float(kp), float(ki), float(nu), float(value), int(flag)))
    return rows


def cmd_sweep_regime(args) -> int:
    if args.a == 0.0:
        raise ConfigurationError("sweep-regime requires a != 0")
    if args.samples < 2:
        raise ConfigurationError("sweep-regime requires samples >= 2")
    gains = critical_kp(args.h, args.a, args.ki)
    kp_values = sorted(set(np.linspace(args.kp_min, args.kp_max, args.samples).tolist()
                           + [gains.kp_plus, gains.kp_minus]))
    out_path = Path(args.out) if args.out else _resolve_output_dir(
        _load_config(None, []), None) / "regime_sweep.csv"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w") as fh:
        fh.write(f"# regime sweep: h={args.h:.17g} a={args.a:.17g} ki={args.ki:.17g}\n")
        fh.write(f"# critical_kp: {gains.kp_plus:.17g} (discriminant root +), "
                 f"{gains.kp_minus:.17g} (discriminant root -); "
                 f"convergent: {gains.convergent}\n")
        fh.write("kp,re_lambda1,im_lambda1,re_lambda2,im_lambda2,regime\n")
        for kp in kp_values:
            lam1, lam2 = eigen_1d(args.h, args.a, kp, args.ki)
            regime = classify_regime([lam1, lam2])
            fh.write(f"{kp:.17g},{lam1.real:.17g},{lam1.imag:.17g},"
                     f"{lam2.real:.17g},{lam2.imag:.17g},{regime.kind.value}\n")
    print(f"sweep complete: {out_path} ({len(kp_values)} rows)")
    return 0


def read_regime_sweep_csv(path):
    """Read a regime-sweep CSV into (kp, lambda1, lambda2, regime) tuples."""
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("kp,"):
                continue
            kp, re1, im1, re2, im2, regime = line.split(",")
            rows.append((float(kp), complex(float(re1), float(im1)),
                         complex(float(re2), float(im2)), regime))
    return rows


def cmd_validate_gradients(args) -> int:
    config = _load_config(args.config, args.overrides)
    if args.problem:
        config["problem"]["kind"] = args.problem
    if args.data:
        config["problem"]["path"] = args.data
    bundle = _build_problem(config, seed=args.seed)
    report = validate_gradients(bundle.problem, num_points=args.points, seed=args.seed)
    print(report.summary())
    return 0 if report.passed else 3


def cmd_oracle_svm(args) -> int:
    path = args.data or iris_csv_path()
    data = load_dataset_csv(path)
    if args.split:
        data, _ = train_validation_split(data, seed=args.seed,
                                         train_fraction=args.train_fraction)
    solution = svm_dual_oracle(data)
    payload = {
        "num_points": data.num_points,
        "num_features": data.num_features,
        "w": solution.w.tolist(),
        "b": solution.b,
        "lambda_star": solution.lam.tolist(),
        "lambda_star_norm": float(np.linalg.norm(solution.lam)),
        "num_support_vectors": int(np.sum(solution.lam > 1e-8)),
        "kkt_residual": solution.kkt_residual,
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"oracle written: {args.out}")
    else:
        print(text, end="")
    return 0


def _split_overrides(extras: list) -> list:
    """Turn leftover ['--loop.max_steps', '50', ...] tokens into pairs."""
    overrides = []
    i = 0
    while i < len(extras):
        token = extras[i]
        if not token.startswith("--"):
            raise ConfigurationError(f"unexpected argument {token!r}")
        if "=" in token:
            key, value = token[2:].split("=", 1)
            overrides.append((key, value))
            i += 1
            continue
        if i + 1 >= len(extras):
            raise ConfigurationError(f"override {token!r} is missing a value")
        overrides.append((token[2:], extras[i + 1]))
        i += 2
    return overrides


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="numax",
                                     description="Lagrangian min-max experiment harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a single configured run")
    p_run.add_argument("--config", help="INI-style run configuration")
    p_run.add_argument("--output-dir", help="artifact directory "
                       "(falls back to [run] output_dir, then $NUMAX_OUTPUT_DIR)")

    p_grid = sub.add_parser("grid", help="run a (kp, ki, nu) grid search")
    p_grid.add_argument("--config", help="INI-style run configuration with a [grid] section")
    p_grid.add_argument("--output-dir")
    p_grid.add_argument("--jobs", type=int, default=None,
                        help="worker processes, >= 1 (default: available cores)")

    p_sweep = sub.add_parser("sweep-regime", help="eigenvalue/damping sweep over kp "
                             "for the 1D constrained QP")
    p_sweep.add_argument("--h", type=float, required=True)
    p_sweep.add_argument("--a", type=float, required=True)
    p_sweep.add_argument("--ki", type=float, required=True)
    p_sweep.add_argument("--kp-min", type=float, default=-5.0)
    p_sweep.add_argument("--kp-max", type=float, default=5.0)
    p_sweep.add_argument("--samples", type=int, default=201)
    p_sweep.add_argument("--out", help="output CSV path")

    p_val = sub.add_parser("validate-gradients", help="check analytic gradients "
                           "against finite differences")
    p_val.add_argument("--config")
    p_val.add_argument("--problem", choices=("svm", "benchmark2d", "qp"))
    p_val.add_argument("--data", help="dataset CSV or QP JSON path")
    p_val.add_argument("--points", type=int, default=10)
    p_val.add_argument("--seed", type=int, default=0)

    p_oracle = sub.add_parser("oracle-svm", help="reference SVM dual solution")
    p_oracle.add_argument("--data", help="dataset CSV (default: vendored Iris subset)")
    p_oracle.add_argument("--seed", type=int, default=0)
    p_oracle.add_argument("--train-fraction", type=float, default=0.7)
    p_oracle.add_argument("--split", action=argparse.BooleanOptionalAction, default=True)
    p_oracle.add_argument("--out", help="write the oracle JSON here instead of stdout")

    return parser


_COMMANDS = {
    "run": cmd_run,
    "grid": cmd_grid,
    "sweep-regime": cmd_sweep_regime,
    "validate-gradients": cmd_validate_gradients,
    "oracle-svm": cmd_oracle_svm,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args, extras = parser.parse_known_args(argv)
    try:
        if args.command in ("run", "grid", "validate-gradients"):
            args.overrides = _split_overrides(extras)
        elif extras:
            raise ConfigurationError(f"unexpected arguments: {extras}")
        return _COMMANDS[args.command](args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
