"""Constrained-problem abstraction, Lagrangian evaluation, and dual projection.

A problem is the objective f, inequality constraints g (satisfied when <= 0)
and equality constraints h (target 0), read through `values(x) -> (f, c)`,
with their gradients and the constraint Jacobian. Constraint values are
always stacked inequality-block first: c(x) = [g(x), h(x)], and the Jacobian
columns follow the same order, and so do the multipliers, theta = [lam, mu].
Every other module indexes by this contract.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields
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


def as_vector(value, length: int, name: str, lead: tuple = (), finite: bool = False) -> np.ndarray:
    """Coerce to a float64 vector of the given length, or to a stack of such
    vectors with leading shape `lead`, or a configuration error that names
    `name`; with `finite`, every entry must be finite (see `as_floats`)."""
    v = as_floats(value, name, finite)
    if v.ndim == 0 and length == 1 and not lead:
        v = v.reshape(1)
    expected = lead + (length,)
    if v.shape != expected:
        raise ConfigurationError(f"{name} must have shape {expected}, got {v.shape}")
    return v


def as_int(value, name: str, low: int | None = None) -> int:
    """`value` as an int, at least `low` when given. A Python or numpy
    integer is accepted, a `bool` is not: anything else, or an integer below
    `low`, is a configuration error that names `name`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    return _at_least(int(value), name, low)


def as_real(value, name: str, low: float | None = None, strict: bool = False) -> float:
    """`value` as a float that passes `is_finite_real` (numpy scalars do),
    at least `low` (above it if `strict`) when given, or a configuration
    error that names `name`: a string, `None` or an array is refused."""
    if not is_finite_real(value):
        raise ConfigurationError(f"{name} must be a finite number, got {value!r}")
    return _at_least(float(value), name, low, strict)


def _at_least(value, name: str, low, strict: bool = False):
    if low is not None and (value <= low if strict else value < low):
        raise ConfigurationError(f"{name} must be {'>' if strict else '>='} {low}, got {value!r}")
    return value


def as_floats(value, name: str, finite: bool = False, dtype=np.float64) -> np.ndarray:
    """`value` as a float64 array (or of `dtype`, complex for a spectrum), the
    one rule for every array argument; what numpy cannot read as numbers, and
    with `finite` a non-finite entry, is a configuration error naming `name`.
    Per-step values go without `finite`: the drivers flag them themselves."""
    try:
        v = np.asarray(value, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(f"{name} must be an array of numbers: {exc}") from exc
    if finite and not np.isfinite(v).all():
        raise ConfigurationError(f"{name} must be finite")
    return v


def is_finite_real(value) -> bool:
    """Whether `value` is a real number, not a `bool`, that is finite as a
    float; an int beyond the float range is not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


# A problem's dimensions and their least values, as `as_int` parses them.
_DIMENSIONS = {"dim_primal": 1, "num_ineq": 0, "num_eq": 0}


@dataclass(frozen=True)
class ConstrainedProblem:
    """Differentiable problem: min f(x) s.t. g(x) <= 0 and h(x) = 0.

    eval_constraint_jacobian returns the (transpose) Jacobian of the stacked
    constraints, shape (dim_primal, num_ineq + num_eq): column j is the
    gradient of the j-th entry of c(x) = [g(x), h(x)].

    Two callables fuse what the loop needs at each step: eval_values(x) ->
    (f(x), c(x)) and eval_primal_gradient(x, theta) -> grad f(x) + Jc(x) @
    theta. Through `values` and `primal_gradient` they are the library's one
    evaluation path, and a problem without them is refused: `from_values`
    builds both, and five callables that are views of them. The five are
    read by `check_fused`, which checks at a start point that the pair gives
    bit for bit what the five compose to, and for their derivatives by
    `constraint_jacobian` and `validate_gradients`. A pair written by hand
    may share subexpressions, but only through the same float operations in
    the same order as the five.

    All callables must be re-entrant and deterministic: the same input bits
    give the same output bits, as `check_fused` and the loop's fixed-point
    rule (`numax.loop`) assume. Instances are immutable after construction
    and safe to share across threads. The dimensions are integers, parsed
    by `as_int`: dim_primal >= 1, num_ineq and num_eq >= 0 (a numpy integer
    is stored as an `int`; a `bool` is refused). The built-in
    problems' callables also take a stack of points x of shape (K,
    dim_primal) and return one result per row, each bit for bit the
    one-point result; the evaluation path below accepts such stacks too. The
    callables and the evaluation path take ndarrays; `constraint_jacobian`
    also takes lists.
    """

    dim_primal: int
    num_ineq: int
    num_eq: int
    eval_objective: Callable[[np.ndarray], float]
    eval_objective_grad: Callable[[np.ndarray], np.ndarray]
    eval_ineq: Callable[[np.ndarray], np.ndarray]
    eval_eq: Callable[[np.ndarray], np.ndarray]
    eval_constraint_jacobian: Callable[[np.ndarray], np.ndarray]
    # required; None defaults only so that a problem without them is refused by name
    eval_values: Callable[[np.ndarray], tuple] = None
    eval_primal_gradient: Callable[[np.ndarray, np.ndarray], np.ndarray] = None

    def __post_init__(self):
        for name, low in _DIMENSIONS.items():
            object.__setattr__(self, name, as_int(getattr(self, name), name, low))
        for name in [spec.name for spec in fields(self)][3:]:
            if not callable(value := getattr(self, name)):
                hint = ("; build the problem with ConstrainedProblem.from_values"
                        if value is None else "")
                raise ConfigurationError(f"{name} must be callable, got {value!r}{hint}")

    @classmethod
    def from_values(cls, dim_primal: int, num_ineq: int, num_eq: int,
                    values: Callable[[np.ndarray], tuple],
                    derivatives: Callable[[np.ndarray], tuple],
                    primal_gradient: Callable | None = None) -> ConstrainedProblem:
        """The problem of `values(x) -> (f(x), c(x))` and `derivatives(x) ->
        (grad f(x), Jc(x))`. `values` is `eval_values`, and `primal_gradient`,
        when given, is `eval_primal_gradient`; otherwise that is grad f + Jc
        theta from one `derivatives` call. The five callables are views of
        the two: g and h slice c once `as_vector` has checked it."""
        dim_primal, num_ineq, num_eq = map(as_int, (dim_primal, num_ineq, num_eq),
                                           _DIMENSIONS, _DIMENSIONS.values())
        num_constraints = num_ineq + num_eq

        def c(x):
            return as_vector(values(x)[1], num_constraints, "c(x)", x.shape[:-1])

        def composed_gradient(x, theta):
            grad, jac = derivatives(x)
            return grad + np.matvec(jac, theta) if num_constraints else grad

        return cls(dim_primal, num_ineq, num_eq,
                   eval_objective=lambda x: values(x)[0],
                   eval_objective_grad=lambda x: derivatives(x)[0],
                   eval_ineq=lambda x: c(x)[..., :num_ineq],
                   eval_eq=lambda x: c(x)[..., num_ineq:],
                   eval_constraint_jacobian=lambda x: derivatives(x)[1],
                   eval_values=values,
                   eval_primal_gradient=primal_gradient or composed_gradient)

    @property
    def num_constraints(self) -> int:
        return self.num_ineq + self.num_eq

    def constraint_jacobian(self, x: np.ndarray) -> np.ndarray:
        """Jc(x), checked to have shape (dim_primal, num_constraints). For a
        stack of points it is one such matrix per point, or one matrix that
        holds for every point (a constant Jacobian)."""
        x = np.asarray(x)
        jac = np.asarray(self.eval_constraint_jacobian(x), dtype=np.float64)
        expected = (*x.shape[:-1], self.dim_primal, self.num_constraints)
        if jac.shape != expected and jac.shape != expected[-2:]:
            raise ConfigurationError(
                f"constraint Jacobian must have shape {expected}, got {jac.shape}")
        return jac

    def values(self, x: np.ndarray) -> tuple:
        """(f(x), c(x)) from `eval_values`, with c = [g, h] checked to have
        num_constraints entries: f a float for one point and a vector for a
        stack."""
        f, c = self.eval_values(x)
        c = as_vector(c, self.num_constraints, "c(x)", x.shape[:-1])
        return _objective(f, x), c

    def primal_gradient(self, x: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """grad f(x) + Jc(x) @ theta from `eval_primal_gradient`, for stacked
        theta = [lam, mu], or row by row for a stack of points x (K,
        dim_primal) and theta (K, num_constraints)."""
        return as_vector(self.eval_primal_gradient(x, theta), self.dim_primal,
                         "grad_x L(x, theta)", x.shape[:-1])

    def check_fused(self, x: np.ndarray, theta: np.ndarray) -> None:
        """Raise ConfigurationError unless `values` and `primal_gradient` at x
        and theta equal, bit for bit, what the five callables compose to
        there: f, c = [g, h] and grad f + Jc theta. The five are read first,
        each checked, so a block, gradient or Jacobian of the wrong shape is
        refused by name."""
        lead = x.shape[:-1]
        f = _objective(self.eval_objective(x), x)
        g = as_vector(self.eval_ineq(x), self.num_ineq, "g(x)", lead)
        h = as_vector(self.eval_eq(x), self.num_eq, "h(x)", lead)
        c = np.concatenate([g, h], axis=-1)
        grad = as_vector(self.eval_objective_grad(x), self.dim_primal, "grad f(x)", lead)
        if self.num_constraints:
            grad = grad + np.matvec(self.constraint_jacobian(x), theta)
        fused = (*self.values(x), self.primal_gradient(x, theta))
        for name, a, b in zip(("f(x)", "c(x)", "grad_x L(x, theta)"), fused, (f, c, grad)):
            if np.asarray(a).tobytes() != np.asarray(b).tobytes():
                raise ConfigurationError(
                    f"the problem's fused {name} differs from its five callables' at the start")


def _objective(f, x: np.ndarray):
    """f(x) as a float for one point x, or as a checked vector for a stack."""
    return float(f) if x.ndim == 1 else as_vector(f, len(x), "f(x)")


def lagrangian_value(f, g: np.ndarray, h: np.ndarray, lam: np.ndarray, mu: np.ndarray):
    """f + lam . g + mu . h from already evaluated values, summed in that
    order: one value, or one per row of stacked blocks (an empty block adds
    nothing, so f = -0.0 stays -0.0). The dot products are `np.vecdot`, whose
    rows equal `lam @ g` bit for bit."""
    value = f
    if lam.shape[-1]:
        value = value + np.vecdot(lam, g)
    if mu.shape[-1]:
        value = value + np.vecdot(mu, h)
    return value


def evaluate_lagrangian(problem: ConstrainedProblem, x, theta) -> float:
    """L(x, theta) = f(x) + lam . g(x) + mu . h(x), with theta = [lam, mu]."""
    x = as_vector(x, problem.dim_primal, "x")
    theta = as_vector(theta, problem.num_constraints, "theta")
    f, c = problem.values(x)
    m = problem.num_ineq
    return float(lagrangian_value(f, c[:m], c[m:], theta[:m], theta[m:]))


def lagrangian_primal_gradient(problem: ConstrainedProblem, x, theta) -> np.ndarray:
    """grad_x L = grad f(x) + Jc(x) @ theta, with theta = [lam, mu]."""
    x = as_vector(x, problem.dim_primal, "x")
    return problem.primal_gradient(x, as_vector(theta, problem.num_constraints, "theta"))


def project_theta(theta, num_ineq: int) -> np.ndarray:
    """Clamp the inequality block theta[:num_ineq] at zero; the equality
    block is untouched. Idempotent, and normalizes -0.0 to +0.0. theta is
    converted to a new float64 vector, and num_ineq must be an integer in
    [0, len(theta)]."""
    theta = np.array(as_floats(theta, "theta"), ndmin=1)  # a copy
    if theta.ndim != 1:
        raise ConfigurationError(f"theta must be a vector, got shape {theta.shape}")
    if not 0 <= as_int(num_ineq, "num_ineq") <= theta.size:
        raise ConfigurationError(
            f"num_ineq must be an integer in [0, {theta.size}], got {num_ineq!r}")
    return _project_theta(theta, num_ineq)


def _project_theta(theta: np.ndarray, num_ineq: int) -> np.ndarray:
    """`project_theta` for a float64 vector, or a stack of them (K, n), and a
    num_ineq in range, unchecked: the drivers' per-step form. With num_ineq =
    0 it returns theta itself."""
    if num_ineq == 0:
        return theta
    if num_ineq == theta.shape[-1]:  # inequalities only: no block to keep
        return np.where(theta > 0.0, theta, 0.0)
    lam = theta[..., :num_ineq]
    return np.concatenate([np.where(lam > 0.0, lam, 0.0), theta[..., num_ineq:]], axis=-1)


# Central differences with per-coordinate step 1e-6 * max(1, |x_i|): the
# standard truncation/roundoff compromise for float64. `validate_gradients`
# passes a relative error of at most _GRADIENT_CHECK_TOLERANCE.
FD_REL_STEP = 1e-6
_GRADIENT_CHECK_TOLERANCE = 1e-5


def central_difference_jacobian(func: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
                                num_outputs: int) -> np.ndarray:
    """Finite-difference (transpose) Jacobian, shape (len(x), num_outputs),
    of `func`, whose values must have num_outputs entries; x is a vector of
    finite numbers."""
    x = as_floats(x, "x", finite=True)
    if x.ndim != 1:
        raise ConfigurationError(f"x must be a vector, got shape {x.shape}")
    num_outputs = as_int(num_outputs, "num_outputs", 0)
    rows = []  # not preallocated: a num_outputs that func does not give is refused first
    for i in range(x.size):
        h = FD_REL_STEP * max(1.0, abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        rows.append((as_vector(func(xp), num_outputs, "func(x)") -
                     as_vector(func(xm), num_outputs, "func(x)")) / (2.0 * h))
    return np.array(rows).reshape(x.size, num_outputs)


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
    denom = np.maximum(1.0, np.abs(reference))
    return float(np.max(np.abs(analytic - reference) / denom))


def seeded_rng(seed: int) -> np.random.Generator:
    """`np.random.default_rng(seed)`, with a seed that is not an integer or
    is negative reported as a configuration error, not numpy's error."""
    return np.random.default_rng(as_int(seed, "seed", 0))


# Overflow at a sampled point is reported as a failure; suppress the numpy
# warnings it would otherwise emit.
@np.errstate(over="ignore", invalid="ignore")
def validate_gradients(problem: ConstrainedProblem, num_points: int,
                       seed: int) -> GradientCheckReport:
    """Check analytic gradients/Jacobians against central differences of
    `values` at random points, one pass over (f, c) per point. Passes iff
    the max relative error is at most the report's `tolerance`, 1e-5, and
    all sampled evaluations, analytic and finite-difference, are finite."""
    num_points = as_int(num_points, "num_points", 1)
    rng = seeded_rng(seed)
    report = GradientCheckReport(num_points=num_points, tolerance=_GRADIENT_CHECK_TOLERANCE)
    m = problem.num_constraints
    for k in range(num_points):
        x = rng.standard_normal(problem.dim_primal)
        if not np.isfinite(problem.values(x)[0]):
            report.failures.append(f"non-finite objective value at point {k}, x={x!r}")
            continue
        analytic_grad = as_vector(problem.eval_objective_grad(x), problem.dim_primal, "grad f(x)")
        if not np.all(np.isfinite(analytic_grad)):
            report.failures.append(f"non-finite analytic gradient at point {k}, x={x!r}")
            continue
        # column 0 differentiates f, the others c
        fd = central_difference_jacobian(lambda z: np.append(*problem.values(z)), x, 1 + m)
        if not np.all(np.isfinite(fd[:, 0])):
            report.failures.append(f"non-finite finite-difference gradient at point {k}, x={x!r}")
            continue
        report.max_rel_error_objective = max(report.max_rel_error_objective,
                                             _rel_error(analytic_grad, fd[:, 0]))
        if m:
            analytic_jac = problem.constraint_jacobian(x)
            if not np.all(np.isfinite(analytic_jac)):
                report.failures.append(f"non-finite constraint Jacobian at point {k}, x={x!r}")
                continue
            if not np.all(np.isfinite(fd[:, 1:])):
                report.failures.append(f"non-finite constraint value near point {k}, x={x!r}")
                continue
            report.max_rel_error_jacobian = max(report.max_rel_error_jacobian,
                                                _rel_error(analytic_jac, fd[:, 1:]))
    return report
