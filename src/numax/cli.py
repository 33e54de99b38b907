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
from .core import (ConfigurationError, ConstrainedProblem, DualVector, NumericalError, read_csv,
                   read_text, validate_gradients)
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

_DEFAULTS = {
    "problem": {"kind": "svm", "path": "", "x0": "", "train_fraction": "0.7", "split": "true"},
    "loop": {"scheme": "alternating", "max_steps": "1000", "record_every": "1",
             "dual_restarts": "false", "stop_tolerance": "", "primal_kind": "gd",
             "primal_step_size": "0.01", "primal_momentum": "0.9"},
    "dual": {"kind": "nupi", "nu": "0.0", "kp": "0.0", "ki": "0.01",
             "alpha": "0.01", "beta": "0.9", "gamma": "0.0", "step_size": "0.01"},
    "grid": {"kp": "", "ki": "", "nu": ""},
    "run": {"seed": "0", "output_dir": "", "metric": "max_violation"},
}


def _load_config(path: str | None, overrides: list) -> dict:
    """Merge defaults, the config file, and --section.key overrides into a
    nested dict of raw strings. Unknown keys are configuration errors."""
    config = {section: dict(values) for section, values in _DEFAULTS.items()}
    if path:
        parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        try:
            parser.read_string(read_text(path, "config file"), source=path)
            for section in parser.sections():
                if section not in _DEFAULTS:
                    raise ConfigurationError(f"unknown config section [{section}]")
                for key, value in parser.items(section):
                    if key not in _DEFAULTS[section]:
                        raise ConfigurationError(f"unknown config key [{section}] {key}")
                    config[section][key] = value.strip()
        except configparser.Error as exc:  # its messages span lines; keep one
            message = " ".join(str(exc).split())
            raise ConfigurationError(f"config file {path}: {message}") from exc
    for key, value in overrides:
        section, _, name = key.partition(".")
        if name not in _DEFAULTS.get(section, ()):
            raise ConfigurationError(f"unknown override --{key} (overrides are --section.key)")
        config[section][name] = value
    return config


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


def _float_list(text: str) -> list:
    return [_finite_float(tok) for tok in text.split(",") if tok.strip()]


_BOOLS = {**dict.fromkeys(("true", "1", "yes", "on"), True),
          **dict.fromkeys(("false", "0", "no", "off"), False)}
# (converter, what it accepts) pairs for _setting; finite floats are its default
_INT = (int, "an integer")
_BOOL = (lambda raw: _BOOLS[raw.lower()], "a boolean")
_FLOATS = (_float_list, "comma-separated finite numbers")


def _setting(config, section, key, convert=_finite_float, expected="a finite number"):
    """The raw `[section] key` string converted, or one configuration error
    line when `convert` rejects it (ValueError, or KeyError from a table)."""
    raw = config[section][key]
    try:
        return convert(raw)
    except (ValueError, KeyError) as exc:
        raise ConfigurationError(f"[{section}] {key} must be {expected}, got {raw!r}") from exc


# [dual] kind -> (config class, the [dual] keys it takes)
_DUAL_KINDS = {
    "nupi": (NuPIConfig, ("nu", "kp", "ki")),
    "ga": (GAConfig, ("step_size",)),
    "um": (UMConfig, ("alpha", "beta", "gamma")),
    "adam": (AdamConfig, ("step_size",)),
}


def _dual_config(config):
    cls, keys = _setting(config, "dual", "kind", lambda raw: _DUAL_KINDS[raw.lower()],
                         "|".join(_DUAL_KINDS))
    return cls(**{key: _setting(config, "dual", key) for key in keys})


def _loop_config(config, dual_config) -> LoopConfig:
    tol = _setting(config, "loop", "stop_tolerance") if config["loop"]["stop_tolerance"] else None
    return LoopConfig(
        scheme=_setting(config, "loop", "scheme", lambda raw: Scheme(raw.lower()),
                        "alternating|simultaneous"),
        max_steps=_setting(config, "loop", "max_steps", *_INT),
        dual_optimizer=dual_config,
        primal_optimizer=PrimalOptimizerConfig(
            kind=_setting(config, "loop", "primal_kind", lambda raw: PrimalKind(raw.lower()),
                          "gd|gd-momentum|adam"),
            step_size=_setting(config, "loop", "primal_step_size"),
            momentum=_setting(config, "loop", "primal_momentum"),
        ),
        dual_restarts=_setting(config, "loop", "dual_restarts", *_BOOL),
        record_every=_setting(config, "loop", "record_every", *_INT),
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
    """The QP of a JSON object with keys H, A, b and an optional c. Its gains
    stay at kp = 0, ki = 1: the problem ignores them and `[dual]` sets them."""
    try:
        payload = json.loads(read_text(path, "QP file"))
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"QP file {path} is not valid JSON: {exc}") from exc
    keys = sorted(payload) if isinstance(payload, dict) else type(payload).__name__
    if not isinstance(payload, dict) or not {"A", "H", "b"} <= set(keys) <= {"A", "H", "b", "c"}:
        raise ConfigurationError(f"QP file {path} must hold an object with keys H, A, b "
                                 f"and optional c, got {keys}")
    try:
        n = len(payload["H"])
        return QPSystem(H=payload["H"], A=payload["A"], b=payload["b"],
                        c_lin=payload.get("c", [0.0] * n), kp=0.0, ki=1.0)
    except (ValueError, TypeError) as exc:
        raise ConfigurationError(f"QP file {path} is malformed: {exc}") from exc


def _build_problem(config, seed: int) -> ProblemBundle:
    kind = config["problem"]["kind"].lower()
    if kind == "svm":
        path = config["problem"]["path"] or iris_csv_path()
        data = load_dataset_csv(path)
        if _setting(config, "problem", "split", *_BOOL):
            train, valid = train_validation_split(
                data, seed=seed, train_fraction=_setting(config, "problem", "train_fraction"))
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
        x0 = _setting(config, "problem", "x0", *_FLOATS)
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
        return float(np.linalg.norm(final.lam - lambda_star))
    if metric == "max_violation":
        viol_g = float(np.max(np.maximum(final.g, 0.0), initial=0.0))
        viol_h = float(np.max(np.abs(final.h), initial=0.0))
        return max(viol_g, viol_h)
    # overshoot, as a running max() over records: rows with a NaN are skipped, 0.0 beats -0.0
    per_record = np.max(np.maximum(-trajectory.column("g"), 0.0), axis=1, initial=-np.inf)
    return max(0.0, float(np.max(per_record[~np.isnan(per_record)], initial=0.0)))


def _echo_config(config, path: Path) -> None:
    lines = []
    for section in sorted(config):
        lines.append(f"[{section}]")
        for key in sorted(config[section]):
            lines.append(f"{key} = {config[section][key]}")
        lines.append("")
    path.write_text("\n".join(lines))


def _prepare(config, output_dir):
    """Everything `run` and `grid` share, checked before any step runs: the
    seed, the metric, the LoopConfig, the problem, the output directory and
    lambda* (SVM only, else None)."""
    seed = _setting(config, "run", "seed", *_INT)
    metric = config["run"]["metric"].lower()
    if metric not in _METRICS:
        raise ConfigurationError(f"[run] metric must be one of {_METRICS}, got {metric!r}")
    if metric == "dist_to_lambda_star" and config["problem"]["kind"].lower() != "svm":
        raise ConfigurationError("[run] metric dist_to_lambda_star needs [problem] kind = svm")
    loop_config = _loop_config(config, _dual_config(config))
    bundle = _build_problem(config, seed)
    out_dir = _resolve_output_dir(config, output_dir)
    lambda_star = svm_dual_oracle(bundle.train_data).lam if bundle.kind == "svm" else None
    return seed, metric, loop_config, bundle, out_dir, lambda_star


def cmd_run(args) -> int:
    config = _load_config(args.config, args.overrides)
    _, metric, loop_config, bundle, out_dir, lambda_star = _prepare(config, args.output_dir)
    for warning in dual_config_warnings(loop_config.dual_optimizer):
        print(f"warning: {warning}", file=sys.stderr)

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


# The header rows of the CSV files that `grid` and `sweep-regime` write
_GRID_COLUMNS = ("kp", "ki", "nu", "final_metric", "diverged_flag")
_REGIME_SWEEP_COLUMNS = ("kp", "re_lambda1", "im_lambda1", "re_lambda2", "im_lambda2", "regime")


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
    if config["dual"]["kind"].lower() != "nupi":
        raise ConfigurationError("grid mode sweeps nuPI gains; set [dual] kind = nupi "
                                 "(gradient ascent is the kp = 0 row)")
    kp_values, ki_values, nu_values = (_setting(config, "grid", key, *_FLOATS)
                                       for key in ("kp", "ki", "nu"))
    if not kp_values or not ki_values:
        raise ConfigurationError("[grid] kp and ki must be nonempty lists")
    seed, metric, loop_config, bundle, out_dir, lambda_star = _prepare(config, args.output_dir)
    nu_values = nu_values or [loop_config.dual_optimizer.nu]

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
        fh.write(",".join(_GRID_COLUMNS) + "\n")
        for kp, ki, nu, value, diverged, note in rows:
            fh.write(f"{kp:.17g},{ki:.17g},{nu:.17g},{value:.17g},{diverged}\n")
            if note:
                print(f"cell kp={kp} ki={ki} nu={nu} failed: {note}", file=sys.stderr)
    _echo_config(config, out_dir / "resolved_config.txt")
    print(f"grid complete: {grid_path} ({len(rows)} cells)")
    return 0


def read_grid_csv(path):
    """Read a grid CSV back into a list of (kp, ki, nu, metric, flag) tuples."""
    _, _, rows = read_csv(path, "grid CSV", header=_GRID_COLUMNS)
    for lineno, values in rows:
        if values[4] not in (0.0, 1.0):
            raise ConfigurationError(f"{path}:{lineno}: diverged_flag must be 0 or 1")
    return [(kp, ki, nu, value, int(flag)) for _, (kp, ki, nu, value, flag, *_) in rows]


def cmd_sweep_regime(args) -> int:
    if args.samples < 2:
        raise ConfigurationError("sweep-regime requires samples >= 2")
    gains = critical_kp(args.h, args.a, args.ki)
    kp_values = sorted(set(np.linspace(args.kp_min, args.kp_max, args.samples).tolist()
                           + [gains.kp_plus, gains.kp_minus]))
    out_path = Path(args.out) if args.out else _resolve_output_dir(
        _DEFAULTS, None) / "regime_sweep.csv"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w") as fh:
        fh.write(f"# regime sweep: h={args.h:.17g} a={args.a:.17g} ki={args.ki:.17g}\n")
        fh.write(f"# critical_kp: {gains.kp_plus:.17g} (discriminant root +), "
                 f"{gains.kp_minus:.17g} (discriminant root -); "
                 f"convergent: {gains.convergent}\n")
        fh.write(",".join(_REGIME_SWEEP_COLUMNS) + "\n")
        for kp in kp_values:
            lam1, lam2 = eigen_1d(args.h, args.a, kp, args.ki)
            regime = classify_regime([lam1, lam2])
            fh.write(f"{kp:.17g},{lam1.real:.17g},{lam1.imag:.17g},"
                     f"{lam2.real:.17g},{lam2.imag:.17g},{regime.kind.value}\n")
    print(f"sweep complete: {out_path} ({len(kp_values)} rows)")
    return 0


def read_regime_sweep_csv(path):
    """Read a regime-sweep CSV into (kp, lambda1, lambda2, regime) tuples."""
    _, _, rows = read_csv(path, "regime sweep CSV", header=_REGIME_SWEEP_COLUMNS, text_columns=1)
    return [(kp, complex(re1, im1), complex(re2, im2), regime)
            for _, (kp, re1, im1, re2, im2, regime, *_) in rows]


def cmd_validate_gradients(args) -> int:
    config = _load_config(args.config, args.overrides)
    seed = _setting(config, "run", "seed", *_INT)
    bundle = _build_problem(config, seed)
    report = validate_gradients(bundle.problem, num_points=args.points, seed=seed)
    print(report.summary())
    return 0 if report.passed else 3


def cmd_oracle_svm(args) -> int:
    config = _load_config(None, args.overrides)
    data = _build_problem(config, _setting(config, "run", "seed", *_INT)).train_data
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
    tokens = iter(extras)
    for token in tokens:
        if not token.startswith("--"):
            raise ConfigurationError(f"unexpected argument {token!r}")
        key, eq, value = token[2:].partition("=")
        if not eq:
            value = next(tokens, None)
            if value is None:
                raise ConfigurationError(f"override {token!r} is missing a value")
        overrides.append((key, value))
    return overrides


class _Parser(argparse.ArgumentParser):
    """argparse whose rejections are configuration errors, so that they leave
    `main` as one line and exit 2 like every other bad input."""

    def error(self, message):
        raise ConfigurationError(message)


def _build_parser() -> argparse.ArgumentParser:
    """Flags with a dotted `dest` are aliases of that `--section.key` setting."""
    parser = _Parser(prog="numax", description="Lagrangian min-max experiment harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a single configured run")
    p_run.set_defaults(handler=cmd_run)
    p_run.add_argument("--config", help="INI-style run configuration")
    p_run.add_argument("--output-dir", help="artifact directory "
                       "(falls back to [run] output_dir, then $NUMAX_OUTPUT_DIR)")

    p_grid = sub.add_parser("grid", help="run a (kp, ki, nu) grid search")
    p_grid.set_defaults(handler=cmd_grid)
    p_grid.add_argument("--config", help="INI-style run configuration with a [grid] section")
    p_grid.add_argument("--output-dir")
    p_grid.add_argument("--jobs", type=int, default=None,
                        help="worker processes, >= 1 (default: available cores)")

    p_sweep = sub.add_parser("sweep-regime", help="eigenvalue/damping sweep over kp "
                             "for the 1D constrained QP")
    p_sweep.set_defaults(handler=cmd_sweep_regime)
    p_sweep.add_argument("--h", type=_finite_float, required=True)
    p_sweep.add_argument("--a", type=_finite_float, required=True)
    p_sweep.add_argument("--ki", type=_finite_float, required=True)
    p_sweep.add_argument("--kp-min", type=_finite_float, default=-5.0)
    p_sweep.add_argument("--kp-max", type=_finite_float, default=5.0)
    p_sweep.add_argument("--samples", type=int, default=201)
    p_sweep.add_argument("--out", help="output CSV path")

    p_val = sub.add_parser("validate-gradients", help="check analytic gradients "
                           "against finite differences")
    p_val.set_defaults(handler=cmd_validate_gradients)
    p_val.add_argument("--config")
    p_val.add_argument("--problem", dest="problem.kind", help="svm | benchmark2d | qp")
    p_val.add_argument("--data", dest="problem.path", help="dataset CSV or QP JSON path")
    p_val.add_argument("--points", type=int, default=10)
    p_val.add_argument("--seed", dest="run.seed")

    p_oracle = sub.add_parser("oracle-svm", help="reference SVM dual solution")
    p_oracle.set_defaults(handler=cmd_oracle_svm)
    p_oracle.add_argument("--data", dest="problem.path",
                          help="dataset CSV (default: vendored Iris subset)")
    p_oracle.add_argument("--seed", dest="run.seed")
    p_oracle.add_argument("--train-fraction", dest="problem.train_fraction")
    p_oracle.add_argument("--split", dest="problem.split", action=argparse.BooleanOptionalAction)
    p_oracle.add_argument("--out", help="write the oracle JSON here instead of stdout")

    return parser


def main(argv=None) -> int:
    try:
        args, extras = _build_parser().parse_known_args(argv)
        if extras and "config" not in vars(args):  # only commands with --config take overrides
            raise ConfigurationError(f"unexpected arguments: {extras}")
        # alias flags come after the --section.key tokens, so a flag wins over the same key
        args.overrides = _split_overrides(extras) + [
            (dest, str(value)) for dest, value in vars(args).items()
            if "." in dest and value is not None]
        return args.handler(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
