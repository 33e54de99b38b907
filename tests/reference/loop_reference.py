"""The descent-ascent driver, its records and its CSV writer as they were
before the driver kept its records in columns and its dual state in place.

`_run`, `_record`, `Trajectory`, `write_trajectory_csv` and `overshoot` are
the plain record-per-step versions, kept verbatim but for composing f, c and
the primal gradient here, from the problem's five callables, not through the
library's evaluation path, and for one later rule: a terminal record whose f
or c is not finite ends the run non-finite. The dual update goes
through the public pure `checked_dual_step` and every theta rewrite rebuilds
the state, so no state here is updated in place. The dual restarts are this
module's own copy of the rule on the split multipliers (lam, mu), so the
library's rule on the stacked theta = [lam, mu] is checked against it.
The primal steps are this module's own frozen copy, `_PrimalOptimizer` with
its Adam moment update `adam_moments`, verbatim as the library wrote them
before its primal optimizer became an update rule of the dual rules' shape
(descent with step eta as ascent with the gain -eta), so the library's
three primal rules are checked against it. Test-only code.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace

import numpy as np

from numax.core import (
    ConfigurationError,
    ConstrainedProblem,
    as_vector,
    lagrangian_value,
    project_theta,
)
from numax.dual_optimizers import checked_dual_step as dual_step, make_dual_state
from numax.loop import (
    LoopConfig,
    PrimalKind,
    PrimalOptimizerConfig,
    Scheme,
    StepRecord,
    TerminationReason,
)


def apply_dual_restarts(lam: np.ndarray, mu: np.ndarray, ineq_violation) -> tuple:
    """Reset lam_i to zero wherever g_i(x) is strictly negative (constraint
    strictly satisfied); returns (lam, mu). Equality multipliers are never
    modified."""
    g = np.atleast_1d(np.asarray(ineq_violation, dtype=np.float64))
    if g.shape != lam.shape:
        raise ConfigurationError(
            f"violation vector has length {g.size}, expected {lam.size}"
        )
    return np.where(g < 0.0, 0.0, lam), mu


def replace_theta(state, theta: np.ndarray):
    return replace(state, theta=theta)


# Adam's moment decay rates and the denominator guard.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def adam_moments(m: np.ndarray, v: np.ndarray, t: int, step_size: float,
                 direction: np.ndarray) -> tuple:
    """Adam's moment update at step t >= 1, shared by the dual and primal
    sides: returns (m, v, increment) with the bias-corrected increment
    step_size * m_hat / (sqrt(v_hat) + ADAM_EPS). No finiteness check."""
    m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * direction
    v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * direction * direction
    m_hat = m / (1.0 - ADAM_BETA1**t)
    v_hat = v / (1.0 - ADAM_BETA2**t)
    return m, v, step_size * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


@dataclass(init=False, eq=False)
class _PrimalOptimizer:
    """Gradient descent, heavy-ball momentum (v <- beta v + grad,
    x <- x - eta v), or Adam (the dual side's `adam_moments`) on the primal
    variables. The step size eta and the momentum beta are held as arrays of
    x's shape, as the loop holds the dual gains (`gain_arrays`). A dataclass,
    like the dual states, so that the loop reads its state through `fields`."""

    kind: PrimalKind
    step_size: np.ndarray
    momentum: np.ndarray
    velocity: np.ndarray
    m: np.ndarray
    v: np.ndarray
    t: int

    def __init__(self, config: PrimalOptimizerConfig, dim: int | tuple):
        self.kind = config.kind
        self.step_size = np.full(dim, config.step_size, dtype=np.float64)
        self.momentum = np.full(dim, config.momentum, dtype=np.float64)
        self.velocity = np.zeros(dim)
        self.m = np.zeros(dim)
        self.v = np.zeros(dim)
        self.t = 0

    def step(self, x: np.ndarray, grad: np.ndarray) -> np.ndarray:
        if self.kind is PrimalKind.GRADIENT_DESCENT:
            return x - self.step_size * grad
        if self.kind is PrimalKind.GRADIENT_DESCENT_MOMENTUM:
            self.velocity = self.momentum * self.velocity + grad
            return x - self.step_size * self.velocity
        self.t += 1
        self.m, self.v, increment = adam_moments(self.m, self.v, self.t, self.step_size, grad)
        return x - increment


@dataclass
class Trajectory:
    steps: list
    terminated_reason: TerminationReason
    # calls of the five callables, keyed as in `_COUNTED`
    counters: dict = field(default_factory=dict)

    @property
    def final(self) -> StepRecord:
        return self.steps[-1]

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(rec, name) for rec in self.steps])


# Problem callables counted per run, keyed as in the five-callable view.
_COUNTED = {"eval_objective": "objective", "eval_ineq": "ineq", "eval_eq": "eq",
            "eval_objective_grad": "objective_grad", "eval_constraint_jacobian": "jacobian"}


def _counted(problem: ConstrainedProblem) -> tuple:
    """The problem's five callables, keyed as in `_COUNTED`, each counting
    its calls; and the counts."""
    counts = dict.fromkeys(_COUNTED.values(), 0)

    def counting(fn, key):
        def call(x):
            counts[key] += 1
            return fn(x)
        return call

    return {key: counting(getattr(problem, name), key) for name, key in _COUNTED.items()}, counts


def _values(problem: ConstrainedProblem, calls: dict, x: np.ndarray) -> tuple:
    """(f(x), c(x)) with c = [g(x), h(x)], each block checked."""
    f = float(calls["objective"](x))
    g = as_vector(calls["ineq"](x), problem.num_ineq, "g(x)")
    h = as_vector(calls["eq"](x), problem.num_eq, "h(x)")
    return f, np.concatenate([g, h])


def _record(t, x, f, g, h, theta, num_ineq) -> StepRecord:
    lam, mu = theta[:num_ineq], theta[num_ineq:]
    return StepRecord(t=t, x=x.copy(), f=f, g=g.copy(), h=h.copy(), lam=lam.copy(),
                      mu=mu.copy(), lagrangian=lagrangian_value(f, g, h, lam, mu))


# Overflow during a diverging run is detected and flagged as NON_FINITE
# termination; suppress the numpy warnings it would otherwise emit.
@np.errstate(over="ignore", invalid="ignore")
def _run(problem: ConstrainedProblem, x0, theta0, config: LoopConfig,
         simultaneous: bool) -> Trajectory:
    x = as_vector(x0, problem.dim_primal, "x0")
    if not np.all(np.isfinite(x)):
        raise ConfigurationError("x0 must be finite")
    theta0 = as_vector(theta0, problem.num_constraints, "theta0")
    if problem.num_ineq and np.any(theta0[:problem.num_ineq] < 0.0):
        raise ConfigurationError("initial inequality multipliers must be >= 0")

    calls, counts = _counted(problem)
    m = problem.num_ineq
    state = make_dual_state(config.dual_optimizer, theta0)
    primal = _PrimalOptimizer(config.primal_optimizer, problem.dim_primal)

    records = []
    reason = TerminationReason.MAX_STEPS
    last_dual_increment = np.inf
    streak = 0
    stopped_at = None

    for t in range(config.max_steps):
        f, error = _values(problem, calls, x)
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
                if streak >= 10:
                    reason = TerminationReason.TOLERANCE
                    stopped_at = t
                    break

        stepped = state.theta
        if error.size:
            state = dual_step(state, config.dual_optimizer, error)
            stepped = state.theta  # tested for finiteness before the projection
            state = replace_theta(state, project_theta(state.theta, m))
            if config.dual_restarts and m:
                lam, mu = apply_dual_restarts(state.theta[:m], state.theta[m:], g)
                state = replace_theta(state, np.concatenate([lam, mu]))
            last_dual_increment = float(np.max(np.abs(state.theta - theta_t)))
        else:
            last_dual_increment = 0.0

        theta_for_primal = theta_t if simultaneous else state.theta
        grad = as_vector(calls["objective_grad"](x), problem.dim_primal, "grad f(x)")
        if problem.num_constraints:
            grad = grad + np.asarray(calls["jacobian"](x), dtype=np.float64) @ theta_for_primal
        x_next = primal.step(x, grad)

        if not (np.all(np.isfinite(x_next)) and np.all(np.isfinite(stepped))):
            theta = np.where(np.isfinite(stepped), state.theta, stepped)
            records.append(_record(t + 1, x_next, np.nan, np.full(m, np.nan),
                                   np.full(problem.num_eq, np.nan), theta, m))
            reason = TerminationReason.NON_FINITE
            break
        x = x_next

    if reason is not TerminationReason.NON_FINITE:
        # Terminal record of the final state (one extra evaluation), which
        # ends the run non-finite like any other record.
        t_final = stopped_at if stopped_at is not None else config.max_steps
        if not records or records[-1].t < t_final:
            f, c = _values(problem, calls, x)
            records.append(_record(t_final, x, f, c[:m], c[m:], state.theta, m))
            if not (np.isfinite(f) and np.all(np.isfinite(c))):
                reason = TerminationReason.NON_FINITE

    return Trajectory(steps=records, terminated_reason=reason, counters=counts)


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


@np.errstate(over="ignore", invalid="ignore")
def overshoot(trajectory) -> float:
    """The `overshoot` metric of `numax run`, one record at a time."""
    worst = 0.0
    for rec in trajectory.steps:
        if rec.g.size:
            worst = max(worst, float(np.max(np.maximum(-rec.g, 0.0))))
    return worst


def run(problem: ConstrainedProblem, x0, theta0, config: LoopConfig) -> Trajectory:
    return _run(problem, x0, theta0, config,
                simultaneous=config.scheme is Scheme.SIMULTANEOUS)
