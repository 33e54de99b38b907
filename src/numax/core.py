"""Constrained-problem abstraction, Lagrangian evaluation, and dual projection.

A problem is stored as a bundle of callables for the objective f, inequality
constraints g (satisfied when <= 0), equality constraints h (target 0), their
gradients, and the constraint Jacobian. Constraint values are always stacked
inequality-block first: c(x) = [g(x), h(x)], and the Jacobian columns follow
the same order, and so do the multipliers, theta = [lam, mu]. Every other
module indexes by this contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np


class ConfigurationError(Exception):
    """Invalid configuration: bad dimensions, malformed inputs, unknown keys."""


class NumericalError(Exception):
    """A computation received or produced non-finite or unusable values."""


def read_text(path, what: str) -> str:
    """The file at `path` decoded as UTF-8. A file that cannot be opened or
    decoded is a configuration error that names `what` and the path."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read {what} {path}: {exc}") from exc


def read_csv(path, what: str, header: tuple | None = None, text_columns: int = 0) -> tuple:
    """The '#' comment lines, the header cells (None without `header`) and the
    data rows of the CSV file at `path`; blank lines are skipped. The header,
    when `header` names its leading columns, is the first other line. Every
    line has as many cells as the first, and a data row is (line number,
    values): its cells as floats, but the last `text_columns` stay text. Each
    rejection is one configuration error naming `path:line`."""
    comments, head, rows, width = [], None, [], None
    lines = read_text(path, what).splitlines()
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if line.startswith("#"):
            comments.append(line)
        elif line:
            cells = line.split(",")
            if width is None:
                width = len(cells)
                if header is not None:
                    if cells[:len(header)] != list(header):
                        raise ConfigurationError(
                            f"{path}:{lineno}: header must begin with {','.join(header)}")
                    head = cells
                    continue
            elif len(cells) != width:
                raise ConfigurationError(
                    f"{path}:{lineno}: ragged row ({len(cells)} cells, expected {width})")
            numeric = width - text_columns
            try:
                rows.append((lineno, [float(c) for c in cells[:numeric]] + cells[numeric:]))
            except ValueError as exc:
                raise ConfigurationError(f"{path}:{lineno}: non-numeric cell: {exc}") from exc
    if header is not None and head is None:
        raise ConfigurationError(f"{path}:{len(lines) + 1}: no header row")
    return comments, head, rows


def as_vector(value, length: int, name: str) -> np.ndarray:
    """Coerce to a float64 vector of the given length or raise."""
    v = np.asarray(value, dtype=np.float64)
    if v.ndim == 0 and length == 1:
        v = v.reshape(1)
    if v.shape != (length,):
        raise ConfigurationError(f"{name} must have shape ({length},), got {v.shape}")
    return v


@dataclass(frozen=True)
class ConstrainedProblem:
    """Differentiable problem: min f(x) s.t. g(x) <= 0 and h(x) = 0.

    eval_constraint_jacobian returns the (transpose) Jacobian of the stacked
    constraints, shape (dim_primal, num_ineq + num_eq): column j is the
    gradient of the j-th entry of c(x) = [g(x), h(x)].

    All callables must be re-entrant; instances are immutable after
    construction and safe to share across threads.
    """

    dim_primal: int
    num_ineq: int
    num_eq: int
    eval_objective: Callable[[np.ndarray], float]
    eval_objective_grad: Callable[[np.ndarray], np.ndarray]
    eval_ineq: Callable[[np.ndarray], np.ndarray]
    eval_eq: Callable[[np.ndarray], np.ndarray]
    eval_constraint_jacobian: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        if self.dim_primal < 1:
            raise ConfigurationError("dim_primal must be positive")
        if self.num_ineq < 0 or self.num_eq < 0:
            raise ConfigurationError("constraint counts must be non-negative")

    @property
    def num_constraints(self) -> int:
        return self.num_ineq + self.num_eq

    def constraints(self, x: np.ndarray) -> np.ndarray:
        """Stacked violations c(x) = [g(x), h(x)]. Both blocks are checked;
        when one is empty, the other is returned without a copy."""
        g = as_vector(self.eval_ineq(x), self.num_ineq, "g(x)")
        h = as_vector(self.eval_eq(x), self.num_eq, "h(x)")
        if not h.size:
            return g
        if not g.size:
            return h
        return np.concatenate([g, h])

    def constraint_jacobian(self, x: np.ndarray) -> np.ndarray:
        """Jc(x), checked to have shape (dim_primal, num_constraints)."""
        jac = np.asarray(self.eval_constraint_jacobian(x), dtype=np.float64)
        expected = (self.dim_primal, self.num_constraints)
        if jac.shape != expected:
            raise ConfigurationError(
                f"constraint Jacobian must have shape {expected}, got {jac.shape}")
        return jac


def lagrangian_value(f: float, g: np.ndarray, h: np.ndarray,
                     lam: np.ndarray, mu: np.ndarray) -> float:
    """f + lam . g + mu . h from already evaluated values, summed in that order."""
    value = f
    if lam.size:
        value += float(lam @ g)
    if mu.size:
        value += float(mu @ h)
    return value


def evaluate_lagrangian(problem: ConstrainedProblem, x, theta) -> float:
    """L(x, theta) = f(x) + lam . g(x) + mu . h(x), with theta = [lam, mu]."""
    x = as_vector(x, problem.dim_primal, "x")
    theta = as_vector(theta, problem.num_constraints, "theta")
    c = problem.constraints(x)
    m = problem.num_ineq
    return lagrangian_value(float(problem.eval_objective(x)), c[:m], c[m:], theta[:m], theta[m:])


def _primal_gradient(problem: ConstrainedProblem, x: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """grad f(x) + Jc(x) @ theta for a checked x and stacked theta = [lam, mu]."""
    grad = as_vector(problem.eval_objective_grad(x), problem.dim_primal, "grad f(x)")
    if problem.num_constraints == 0:
        return grad
    return grad + problem.constraint_jacobian(x) @ theta


def lagrangian_primal_gradient(problem: ConstrainedProblem, x, theta) -> np.ndarray:
    """grad_x L = grad f(x) + Jc(x) @ theta, with theta = [lam, mu]."""
    x = as_vector(x, problem.dim_primal, "x")
    return _primal_gradient(problem, x, as_vector(theta, problem.num_constraints, "theta"))


def project_theta(theta, num_ineq: int) -> np.ndarray:
    """Clamp the inequality block theta[:num_ineq] at zero; the equality
    block is untouched. Idempotent, and normalizes -0.0 to +0.0. theta is
    converted to a new float64 vector, and num_ineq must be an integer in
    [0, len(theta)]."""
    theta = np.array(theta, dtype=np.float64, ndmin=1)
    if theta.ndim != 1:
        raise ConfigurationError(f"theta must be a vector, got shape {theta.shape}")
    if not (isinstance(num_ineq, (int, np.integer)) and 0 <= num_ineq <= theta.size):
        raise ConfigurationError(
            f"num_ineq must be an integer in [0, {theta.size}], got {num_ineq!r}")
    return _project_theta(theta, num_ineq)


def _project_theta(theta: np.ndarray, num_ineq: int) -> np.ndarray:
    """`project_theta` for a float64 vector and a num_ineq in range, unchecked:
    the driver's per-step form. With num_ineq = 0 it returns theta itself."""
    if num_ineq == 0:
        return theta
    lam = theta[:num_ineq]
    return np.concatenate([np.where(lam > 0.0, lam, 0.0), theta[num_ineq:]])


# Central differences with per-coordinate step 1e-6 * max(1, |x_i|): the
# standard truncation/roundoff compromise for float64.
FD_REL_STEP = 1e-6


def central_difference_gradient(func: Callable[[np.ndarray], float], x: np.ndarray) -> np.ndarray:
    return central_difference_jacobian(lambda z: float(func(z)), x, 1)[:, 0]


def central_difference_jacobian(func: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
                                num_outputs: int) -> np.ndarray:
    """Finite-difference (transpose) Jacobian, shape (len(x), num_outputs)."""
    x = np.asarray(x, dtype=np.float64)
    jac = np.empty((x.size, num_outputs))
    for i in range(x.size):
        h = FD_REL_STEP * max(1.0, abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        jac[i, :] = (np.asarray(func(xp), dtype=np.float64) -
                     np.asarray(func(xm), dtype=np.float64)) / (2.0 * h)
    return jac


@dataclass
class GradientCheckReport:
    """Outcome of comparing analytic gradients against central differences."""

    num_points: int
    tolerance: float
    max_rel_error_objective: float = 0.0
    max_rel_error_jacobian: float = 0.0
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return (not self.failures
                and self.max_rel_error_objective <= self.tolerance
                and self.max_rel_error_jacobian <= self.tolerance)

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        lines = [
            f"gradient check: {status} ({self.num_points} points, tol {self.tolerance:g})",
            f"  max rel error, objective gradient: {self.max_rel_error_objective:.3e}",
            f"  max rel error, constraint Jacobian: {self.max_rel_error_jacobian:.3e}",
        ]
        lines.extend(f"  failure: {msg}" for msg in self.failures)
        return "\n".join(lines)


def _rel_error(analytic: np.ndarray, reference: np.ndarray) -> float:
    if analytic.size == 0:
        return 0.0
    denom = np.maximum(1.0, np.abs(reference))
    return float(np.max(np.abs(analytic - reference) / denom))


def seeded_rng(seed: int) -> np.random.Generator:
    """`np.random.default_rng(seed)`, with a negative seed reported as a
    configuration error instead of numpy's ValueError."""
    if seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(seed)


# Overflow at a sampled point is reported as a failure; suppress the numpy
# warnings it would otherwise emit.
@np.errstate(over="ignore", invalid="ignore")
def validate_gradients(problem: ConstrainedProblem, num_points: int, seed: int,
                       tolerance: float = 1e-5) -> GradientCheckReport:
    """Check analytic gradients/Jacobians against central differences at
    random points. Passes iff the max relative error is <= tolerance and all
    sampled evaluations, analytic and finite-difference, are finite."""
    if num_points < 1:
        raise ConfigurationError(f"num_points must be >= 1, got {num_points}")
    rng = seeded_rng(seed)
    report = GradientCheckReport(num_points=num_points, tolerance=tolerance)
    for k in range(num_points):
        x = rng.standard_normal(problem.dim_primal)
        f = float(problem.eval_objective(x))
        if not np.isfinite(f):
            report.failures.append(f"non-finite objective value at point {k}, x={x!r}")
            continue
        analytic_grad = as_vector(problem.eval_objective_grad(x), problem.dim_primal, "grad f(x)")
        if not np.all(np.isfinite(analytic_grad)):
            report.failures.append(f"non-finite analytic gradient at point {k}, x={x!r}")
            continue
        fd_grad = central_difference_gradient(problem.eval_objective, x)
        if not np.all(np.isfinite(fd_grad)):
            report.failures.append(f"non-finite finite-difference gradient at point {k}, x={x!r}")
            continue
        report.max_rel_error_objective = max(report.max_rel_error_objective,
                                             _rel_error(analytic_grad, fd_grad))
        if problem.num_constraints:
            analytic_jac = problem.constraint_jacobian(x)
            if not np.all(np.isfinite(analytic_jac)):
                report.failures.append(f"non-finite constraint Jacobian at point {k}, x={x!r}")
                continue
            fd_jac = central_difference_jacobian(problem.constraints, x, problem.num_constraints)
            if not np.all(np.isfinite(fd_jac)):
                report.failures.append(f"non-finite constraint value near point {k}, x={x!r}")
                continue
            report.max_rel_error_jacobian = max(report.max_rel_error_jacobian,
                                                _rel_error(analytic_jac, fd_jac))
    return report
