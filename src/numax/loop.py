"""Min-max drivers: alternating and simultaneous gradient descent-ascent.

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
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .core import (
    ConfigurationError,
    ConstrainedProblem,
    DualVector,
    as_vector,
    lagrangian_value,
    project_theta,
)
from .dual_optimizers import (
    AdamConfig,
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


@dataclass(frozen=True)
class LoopConfig:
    scheme: Scheme
    max_steps: int
    dual_optimizer: DualOptimizerConfig
    primal_optimizer: PrimalOptimizerConfig
    dual_restarts: bool = False
    record_every: int = 1
    stop_tolerance: float | None = None
    # consecutive recorded steps that must sit below stop_tolerance
    stop_patience: int = 10

    def __post_init__(self):
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


@dataclass
class Trajectory:
    steps: list
    terminated_reason: TerminationReason
    # evaluation counts, keyed objective / ineq / eq / objective_grad / jacobian
    counters: dict = field(default_factory=dict)

    @property
    def final(self) -> StepRecord:
        return self.steps[-1]

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(rec, name) for rec in self.steps])


# Problem callables counted per run, keyed as in Trajectory.counters.
_COUNTED = {"eval_objective": "objective", "eval_ineq": "ineq", "eval_eq": "eq",
            "eval_objective_grad": "objective_grad", "eval_constraint_jacobian": "jacobian"}


def _counted(problem: ConstrainedProblem) -> tuple:
    """A copy of the problem whose five callables count their calls, and the counts."""
    counts = dict.fromkeys(_COUNTED.values(), 0)

    def counting(fn, key):
        def call(x):
            counts[key] += 1
            return fn(x)
        return call

    return replace(problem, **{
        name: counting(getattr(problem, name), key) for name, key in _COUNTED.items()}), counts


class _PrimalOptimizer:
    """Gradient descent, heavy-ball momentum (v <- beta v + grad,
    x <- x - eta v), or Adam (the dual side's `adam_moments` with
    AdamConfig's default betas and eps) on the primal variables."""

    def __init__(self, config: PrimalOptimizerConfig, dim: int):
        self.config = config
        self.adam = AdamConfig(step_size=config.step_size)
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
        self.m, self.v, increment = adam_moments(self.m, self.v, self.t, self.adam, grad)
        return x - increment


def _record(t, x, f, g, h, theta, num_ineq) -> StepRecord:
    lam, mu = theta[:num_ineq], theta[num_ineq:]
    return StepRecord(t=t, x=x.copy(), f=f, g=g.copy(), h=h.copy(), lam=lam.copy(),
                      mu=mu.copy(), lagrangian=lagrangian_value(f, g, h, lam, mu))


# Overflow during a diverging run is detected and flagged as NON_FINITE
# termination; suppress the numpy warnings it would otherwise emit.
@np.errstate(over="ignore", invalid="ignore")
def _run(problem: ConstrainedProblem, x0, duals0: DualVector, config: LoopConfig,
         simultaneous: bool) -> Trajectory:
    x = as_vector(x0, problem.dim_primal, "x0")
    if not np.all(np.isfinite(x)):
        raise ConfigurationError("x0 must be finite")
    if duals0.lam.size and np.any(duals0.lam < 0.0):
        raise ConfigurationError("initial inequality multipliers must be >= 0")

    problem, counts = _counted(problem)
    m = problem.num_ineq
    state = make_dual_state(config.dual_optimizer, duals0.stacked)
    primal = _PrimalOptimizer(config.primal_optimizer, problem.dim_primal)

    records = []
    reason = TerminationReason.MAX_STEPS
    last_dual_increment = np.inf
    streak = 0
    stopped_at = None

    for t in range(config.max_steps):
        f = float(problem.eval_objective(x))
        error = problem.constraints(x)
        g, h = error[:m], error[m:]
        theta_t = state.theta
        if not (np.isfinite(f) and np.all(np.isfinite(error))):
            records.append(_record(t, x, f, g, h, theta_t, m))
            reason = TerminationReason.NON_FINITE
            break

        recording = t % config.record_every == 0
        if recording:
            records.append(_record(t, x, f, g, h, theta_t, m))
            if config.stop_tolerance is not None:
                viol = float(np.max(np.abs(error))) if error.size else 0.0
                if viol <= config.stop_tolerance and last_dual_increment <= config.stop_tolerance:
                    streak += 1
                else:
                    streak = 0
                if streak >= config.stop_patience:
                    reason = TerminationReason.TOLERANCE
                    stopped_at = t
                    break

        if error.size:
            state = dual_step(state, config.dual_optimizer, error)
            state = replace_theta(state, project_theta(state.theta, m))
            if config.dual_restarts and m:
                duals = apply_dual_restarts(DualVector.from_stacked(state.theta, m), g)
                state = replace_theta(state, duals.stacked)
            last_dual_increment = float(np.max(np.abs(state.theta - theta_t)))
        else:
            last_dual_increment = 0.0

        theta_for_primal = theta_t if simultaneous else state.theta
        grad = as_vector(problem.eval_objective_grad(x), problem.dim_primal, "grad f(x)")
        if problem.num_constraints:
            grad = grad + problem.constraint_jacobian(x) @ theta_for_primal
        x_next = primal.step(x, grad)

        if not (np.all(np.isfinite(x_next)) and np.all(np.isfinite(state.theta))):
            records.append(_record(t + 1, x_next, np.nan, np.full(m, np.nan),
                                   np.full(problem.num_eq, np.nan), state.theta, m))
            reason = TerminationReason.NON_FINITE
            break
        x = x_next

    if reason is not TerminationReason.NON_FINITE:
        # Terminal record of the final state (one extra evaluation).
        t_final = stopped_at if stopped_at is not None else config.max_steps
        if not records or records[-1].t < t_final:
            f = float(problem.eval_objective(x))
            c = problem.constraints(x)
            records.append(_record(t_final, x, f, c[:m], c[m:], state.theta, m))

    return Trajectory(steps=records, terminated_reason=reason, counters=counts)


def run_alternating(problem: ConstrainedProblem, x0, duals0: DualVector,
                    config: LoopConfig) -> Trajectory:
    """Alternating GDA: the primal step sees the freshly updated multipliers."""
    return _run(problem, x0, duals0, config, simultaneous=False)


def run_simultaneous(problem: ConstrainedProblem, x0, duals0: DualVector,
                     config: LoopConfig) -> Trajectory:
    """Simultaneous GDA: the primal step uses the pre-update multipliers."""
    return _run(problem, x0, duals0, config, simultaneous=True)


def run(problem: ConstrainedProblem, x0, duals0: DualVector, config: LoopConfig) -> Trajectory:
    if config.scheme is Scheme.ALTERNATING:
        return run_alternating(problem, x0, duals0, config)
    return run_simultaneous(problem, x0, duals0, config)


# CSV serialization. Header: t,f,linf_g,linf_h,lagrangian,lambda_0..,mu_0..,x_0..
# Floats are written with 17 significant digits, which round-trips float64
# exactly.

def _fmt(value: float) -> str:
    return f"{value:.17g}"


def write_trajectory_csv(trajectory: Trajectory, path) -> None:
    if not trajectory.steps:
        raise ConfigurationError("cannot serialize an empty trajectory")
    first = trajectory.steps[0]
    m, n, d = first.lam.size, first.mu.size, first.x.size
    header = (["t", "f", "linf_g", "linf_h", "lagrangian"]
              + [f"lambda_{i}" for i in range(m)]
              + [f"mu_{i}" for i in range(n)]
              + [f"x_{i}" for i in range(d)])
    with open(path, "w", newline="") as fh:
        fh.write(f"# trajectory: {m} inequality multipliers, {n} equality multipliers, "
                 f"{d} primal coordinates; linf_* are infinity norms of g and h\n")
        fh.write(f"# terminated_reason: {trajectory.terminated_reason.value}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for rec in trajectory.steps:
            linf_g = float(np.max(np.abs(rec.g))) if rec.g.size else 0.0
            linf_h = float(np.max(np.abs(rec.h))) if rec.h.size else 0.0
            row = ([str(rec.t), _fmt(rec.f), _fmt(linf_g), _fmt(linf_h), _fmt(rec.lagrangian)]
                   + [_fmt(v) for v in rec.lam]
                   + [_fmt(v) for v in rec.mu]
                   + [_fmt(v) for v in rec.x])
            writer.writerow(row)


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
    reason = ""
    rows = []
    with open(path, newline="") as fh:
        for line in fh:
            if line.startswith("#"):
                if "terminated_reason:" in line:
                    reason = line.split("terminated_reason:", 1)[1].strip()
                continue
            rows.append(line)
    reader = csv.reader(io.StringIO("".join(rows)))
    header = next(reader)
    m = sum(1 for c in header if c.startswith("lambda_"))
    n = sum(1 for c in header if c.startswith("mu_"))
    d = sum(1 for c in header if c.startswith("x_"))
    data = [[float(v) for v in row] for row in reader if row]
    arr = np.array(data, dtype=np.float64).reshape(len(data), len(header))
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
