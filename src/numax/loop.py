"""The min-max driver: gradient descent-ascent, alternating or simultaneous
as `LoopConfig.scheme` says.

One iteration of the alternating scheme, with the dual error e_t = c(x_t):

    evaluate c(x_t) = [g(x_t), h(x_t)]      (constraints measured once)
    theta_{t+1} <- dual optimizer step on e_t
    theta_{t+1} <- project lambda block >= 0
    theta_{t+1} <- dual restarts (optional)
    x_{t+1}     <- primal step on grad f(x_t) + Jc(x_t) theta_{t+1}

The simultaneous scheme is identical except the primal step uses the
pre-update multipliers theta_t. Records store the state (x_t, theta_t) at
the start of iteration t plus a terminal record of the final state.

Two behavioral notes. The controller state (the nuPI error average xi, a
momentum buffer, Adam moments) is never modified by the projection or by
dual restarts: both rewrite the stored theta only, and the next update
continues from the rewritten value, so the theta sequence is discontinuous
at steps where the projection binds or a restart fires. Dual restarts
likewise reset inequality multipliers without touching xi.

The driver owns the iteration order, the primal step, recording and
stopping; every rule it applies has one copy elsewhere. `core` holds the
checked accessors for c(x) and its Jacobian, the Lagrangian
(`lagrangian_value`) and the projection (`project_theta`);
`dual_optimizers` holds the multiplier updates, the dual restarts and the
Adam moment update (`adam_moments`), which the primal Adam also uses.

The dual state is advanced in place and the projected (and restarted) theta
written back into it. Records fill columns (`Records`) that grow by doubling,
which `Trajectory.steps` reads as `StepRecord` views and the CSV writer in
blocks.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .core import (
    ConfigurationError,
    ConstrainedProblem,
    DualVector,
    as_vector,
    lagrangian_value,
    project_theta,
    read_csv,
)
from .dual_optimizers import (
    DualOptimizerConfig,
    adam_moments,
    dual_step,
    apply_dual_restarts,
    make_dual_state,
    replace_theta,
)


class Scheme(Enum):
    ALTERNATING = "alternating"
    SIMULTANEOUS = "simultaneous"


class PrimalKind(Enum):
    GRADIENT_DESCENT = "gd"
    GRADIENT_DESCENT_MOMENTUM = "gd-momentum"
    ADAM = "adam"


@dataclass(frozen=True)
class PrimalOptimizerConfig:
    kind: PrimalKind
    step_size: float
    momentum: float = 0.9

    def __post_init__(self):
        if not (np.isfinite(self.step_size) and self.step_size > 0):
            raise ConfigurationError("primal step_size must be finite and positive")


# Consecutive recorded steps whose violation and dual increment must sit at or
# below stop_tolerance before the run stops.
_STOP_PATIENCE = 10


@dataclass(frozen=True)
class LoopConfig:
    scheme: Scheme
    max_steps: int
    dual_optimizer: DualOptimizerConfig
    primal_optimizer: PrimalOptimizerConfig
    dual_restarts: bool = False
    record_every: int = 1
    stop_tolerance: float | None = None

    def __post_init__(self):
        if not isinstance(self.scheme, Scheme):
            raise ConfigurationError(f"scheme must be a Scheme, got {self.scheme!r}")
        if self.max_steps < 1:
            raise ConfigurationError("max_steps must be >= 1")
        if self.record_every < 1:
            raise ConfigurationError("record_every must be >= 1")


class TerminationReason(Enum):
    MAX_STEPS = "max-steps"
    TOLERANCE = "tolerance"
    NON_FINITE = "non-finite"


@dataclass(frozen=True)
class StepRecord:
    t: int
    x: np.ndarray
    f: float
    g: np.ndarray
    h: np.ndarray
    lam: np.ndarray
    mu: np.ndarray
    lagrangian: float


# Records start with at most this many rows and double when full. A run that
# stops early then holds columns sized by what it recorded, not by its step
# budget; budgets up to this size (50k steps plus two records) never grow.
_RECORDS_INITIAL_ROWS = 1 << 16


class Records(Sequence):
    """A run's records as columns; rows [0, len) are filled. Item i is a
    `StepRecord` whose arrays are views of row i."""

    _COLUMNS = ("t", "f", "lagrangian", "x", "c", "theta")

    def __init__(self, rows: int, dim_primal: int, num_ineq: int, num_eq: int):
        rows = min(rows, _RECORDS_INITIAL_ROWS)
        self.num_ineq, self.size = num_ineq, 0
        self.t = np.empty(rows, dtype=np.int64)
        self.f, self.lagrangian = np.empty(rows), np.empty(rows)
        self.x = np.empty((rows, dim_primal))
        self.c = np.empty((rows, num_ineq + num_eq))  # [g, h]
        self.theta = np.empty((rows, num_ineq + num_eq))  # [lam, mu]

    def append(self, t: int, x: np.ndarray, f: float, c: np.ndarray, theta: np.ndarray) -> None:
        i, m = self.size, self.num_ineq
        if i == len(self.t):
            for name in self._COLUMNS:
                old = getattr(self, name)
                grown = np.empty((2 * len(old),) + old.shape[1:], dtype=old.dtype)
                grown[:i] = old
                setattr(self, name, grown)
        self.t[i], self.f[i], self.x[i], self.c[i], self.theta[i] = t, f, x, c, theta
        self.lagrangian[i] = lagrangian_value(f, c[:m], c[m:], theta[:m], theta[m:])
        self.size = i + 1

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(self.size))]
        i, m = range(self.size)[i], self.num_ineq
        return StepRecord(t=int(self.t[i]), x=self.x[i], f=float(self.f[i]), g=self.c[i, :m],
                          h=self.c[i, m:], lam=self.theta[i, :m], mu=self.theta[i, m:],
                          lagrangian=float(self.lagrangian[i]))


@dataclass
class Trajectory:
    steps: Records
    terminated_reason: TerminationReason
    # evaluation counts, keyed objective / ineq / eq / objective_grad / jacobian
    counters: dict = field(default_factory=dict)

    @property
    def final(self) -> StepRecord:
        return self.steps[-1]

    def column(self, name: str) -> np.ndarray:
        """A copy of one StepRecord field over all records, one row each."""
        cols, n, m = self.steps, len(self.steps), self.steps.num_ineq
        blocks = {"g": cols.c[:n, :m], "h": cols.c[:n, m:], "lam": cols.theta[:n, :m],
                  "mu": cols.theta[:n, m:]}
        return np.array(blocks[name] if name in blocks else getattr(cols, name)[:n])


class _PrimalOptimizer:
    """Gradient descent, heavy-ball momentum (v <- beta v + grad,
    x <- x - eta v), or Adam (the dual side's `adam_moments`) on the primal
    variables."""

    def __init__(self, config: PrimalOptimizerConfig, dim: int):
        self.config = config
        self.velocity = np.zeros(dim)
        self.m = np.zeros(dim)
        self.v = np.zeros(dim)
        self.t = 0

    def step(self, x: np.ndarray, grad: np.ndarray) -> np.ndarray:
        cfg = self.config
        if cfg.kind is PrimalKind.GRADIENT_DESCENT:
            return x - cfg.step_size * grad
        if cfg.kind is PrimalKind.GRADIENT_DESCENT_MOMENTUM:
            self.velocity = cfg.momentum * self.velocity + grad
            return x - cfg.step_size * self.velocity
        self.t += 1
        self.m, self.v, increment = adam_moments(self.m, self.v, self.t, cfg.step_size, grad)
        return x - increment


# Overflow during a diverging run is detected and flagged as NON_FINITE
# termination; suppress the numpy warnings it would otherwise emit.
@np.errstate(over="ignore", invalid="ignore")
def run(problem: ConstrainedProblem, x0, duals0: DualVector, config: LoopConfig) -> Trajectory:
    """Descent-ascent from (x0, duals0) under `config.scheme`: the alternating
    primal step sees the freshly updated multipliers, the simultaneous one
    the pre-update multipliers."""
    x = as_vector(x0, problem.dim_primal, "x0")
    if not np.all(np.isfinite(x)):
        raise ConfigurationError("x0 must be finite")
    if duals0.lam.size and np.any(duals0.lam < 0.0):
        raise ConfigurationError("initial inequality multipliers must be >= 0")

    m, num_constraints = problem.num_ineq, problem.num_constraints
    simultaneous = config.scheme is Scheme.SIMULTANEOUS
    state = make_dual_state(config.dual_optimizer, duals0.stacked)
    primal = _PrimalOptimizer(config.primal_optimizer, problem.dim_primal)
    records = Records(config.max_steps // config.record_every + 2, problem.dim_primal, m,
                      problem.num_eq)

    reason = TerminationReason.MAX_STEPS
    last_dual_increment = np.inf
    streak = 0
    stopped_at = None
    evaluations = primal_steps = 0

    for t in range(config.max_steps):
        evaluations += 1
        f = float(problem.eval_objective(x))
        error = problem.constraints(x)
        theta_t = state.theta
        # logical_and.reduce: ndarray.all's Python wrapper costs more on short vectors
        if not (math.isfinite(f) and np.logical_and.reduce(np.isfinite(error))):
            records.append(t, x, f, error, theta_t)
            reason = TerminationReason.NON_FINITE
            break

        if t % config.record_every == 0:
            records.append(t, x, f, error, theta_t)
            if config.stop_tolerance is not None:
                viol = float(np.max(np.abs(error))) if error.size else 0.0
                if viol <= config.stop_tolerance and last_dual_increment <= config.stop_tolerance:
                    streak += 1
                else:
                    streak = 0
                if streak >= _STOP_PATIENCE:
                    reason = TerminationReason.TOLERANCE
                    stopped_at = t
                    break

        if error.size:
            dual_step(state, config.dual_optimizer, error)
            theta = project_theta(state.theta, m)
            if config.dual_restarts and m:
                theta = apply_dual_restarts(DualVector.from_stacked(theta, m), error[:m]).stacked
            replace_theta(state, theta)
            if config.stop_tolerance is not None:
                last_dual_increment = float(np.max(np.abs(theta - theta_t)))
        else:
            last_dual_increment = 0.0

        primal_steps += 1
        theta_for_primal = theta_t if simultaneous else state.theta
        grad = as_vector(problem.eval_objective_grad(x), problem.dim_primal, "grad f(x)")
        if num_constraints:
            grad = grad + problem.constraint_jacobian(x) @ theta_for_primal
        x_next = primal.step(x, grad)

        if not (np.logical_and.reduce(np.isfinite(x_next))
                and np.logical_and.reduce(np.isfinite(state.theta))):
            records.append(t + 1, x_next, np.nan, np.full(error.size, np.nan), state.theta)
            reason = TerminationReason.NON_FINITE
            break
        x = x_next

    if reason is not TerminationReason.NON_FINITE:
        # Terminal record of the final state (one extra evaluation).
        t_final = stopped_at if stopped_at is not None else config.max_steps
        if records[-1].t < t_final:
            evaluations += 1
            f = float(problem.eval_objective(x))
            records.append(t_final, x, f, problem.constraints(x), state.theta)

    counters = {"objective": evaluations, "ineq": evaluations, "eq": evaluations,
                "objective_grad": primal_steps, "jacobian": primal_steps if num_constraints else 0}
    return Trajectory(steps=records, terminated_reason=reason, counters=counters)


# CSV serialization. Header: t,f,linf_g,linf_h,lagrangian,lambda_0..,mu_0..,x_0..
# Floats are written with 17 significant digits, which round-trips float64
# exactly; rows end in "\r\n", the csv module's line terminator. Row blocks
# bound the writer's memory.
_CSV_BLOCK_ROWS = 512
_CSV_LEADING_COLUMNS = ("t", "f", "linf_g", "linf_h", "lagrangian")


def write_trajectory_csv(trajectory: Trajectory, path) -> None:
    cols = trajectory.steps
    if not cols:
        raise ConfigurationError("cannot serialize an empty trajectory")
    m, n, d = cols.num_ineq, cols.c.shape[1] - cols.num_ineq, cols.x.shape[1]
    header = (list(_CSV_LEADING_COLUMNS)
              + [f"lambda_{i}" for i in range(m)]
              + [f"mu_{i}" for i in range(n)]
              + [f"x_{i}" for i in range(d)])
    row = "%d" + ",%.17g" * (len(header) - 1) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(f"# trajectory: {m} inequality multipliers, {n} equality multipliers, "
                 f"{d} primal coordinates; linf_* are infinity norms of g and h\n")
        fh.write(f"# terminated_reason: {trajectory.terminated_reason.value}\n")
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(cols), _CSV_BLOCK_ROWS):
            rows = slice(start, min(start + _CSV_BLOCK_ROWS, len(cols)))
            c = np.abs(cols.c[rows])
            block = np.column_stack([cols.t[rows], cols.f[rows], c[:, :m].max(axis=1, initial=0.0),
                                     c[:, m:].max(axis=1, initial=0.0), cols.lagrangian[rows],
                                     cols.theta[rows], cols.x[rows]])
            fh.write("".join([row % tuple(values) for values in block.tolist()]))


@dataclass
class TrajectoryTable:
    """Column view of a serialized trajectory."""

    t: np.ndarray
    f: np.ndarray
    linf_g: np.ndarray
    linf_h: np.ndarray
    lagrangian: np.ndarray
    lam: np.ndarray  # shape (steps, m)
    mu: np.ndarray   # shape (steps, n)
    x: np.ndarray    # shape (steps, d)
    terminated_reason: str


def read_trajectory_csv(path) -> TrajectoryTable:
    comments, header, rows = read_csv(path, "trajectory CSV", header=_CSV_LEADING_COLUMNS)
    reason = ""
    for line in comments:
        if "terminated_reason:" in line:
            reason = line.split("terminated_reason:", 1)[1].strip()
    m = sum(1 for c in header if c.startswith("lambda_"))
    n = sum(1 for c in header if c.startswith("mu_"))
    d = sum(1 for c in header if c.startswith("x_"))
    arr = np.array([values for _, values in rows], dtype=np.float64).reshape(len(rows), len(header))
    return TrajectoryTable(
        t=arr[:, 0].astype(int),
        f=arr[:, 1],
        linf_g=arr[:, 2],
        linf_h=arr[:, 3],
        lagrangian=arr[:, 4],
        lam=arr[:, 5:5 + m],
        mu=arr[:, 5 + m:5 + m + n],
        x=arr[:, 5 + m + n:5 + m + n + d],
        terminated_reason=reason,
    )
