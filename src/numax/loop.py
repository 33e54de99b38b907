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
the start of iteration t; the last iteration, t = max_steps, takes no step.
Every stop is decided in one place, at the top of an iteration, from what
the last step produced and from the evaluation of x_t, so the final record
obeys the same non-finite rule as every other.

Two behavioral notes. The controller state (the nuPI error average xi, a
momentum buffer, Adam moments) is never modified by the projection or by
dual restarts: both rewrite the stored theta only, and the next update
continues from the rewritten value, so the theta sequence is discontinuous
at steps where the projection binds or a restart fires. Dual restarts
likewise reset inequality multipliers without touching xi.

One loop, `_descent_ascent`, owns the iteration order, the primal step and
every stop rule, for one point (`run`) or for K cells of one problem in
lockstep (`_run_columns`, which `numax grid` calls); a keeper says what is
kept, so a cell ends bit for bit as `run` of that cell does.

Every rule the loop applies has one copy elsewhere. `core` holds the
problem's evaluation path, `ConstrainedProblem.values` (f and c) and
`primal_gradient` (grad f + Jc theta), through the problem's fused pair,
which `check_fused` compares with its five callables at the start point;
the Lagrangian (`lagrangian_value`); and the projection (`_project_theta`).
`dual_optimizers` holds the multiplier updates and the dual restarts; the
primal step is GA's, Adam's or heavy-ball's rule (`_PRIMAL_RULES`) with the
gain -eta. Once per run every gain of both players becomes an array of its
operand's shape (`gain_arrays`), with the same bits as the scalar or (K, 1)
gains; both states advance in place, and records fill `Records`' columns.

A run whose dynamics settle ends, in float64, on an exact fixed point of
the step map: every later iteration gives the same bits. Every
`_FIXED_POINT_EVERY` steps the loop stores the bytes of everything it
carries from one iteration to the next (`_carried`) and compares them at
the next step. The problem's callables are deterministic
(`ConstrainedProblem`), so equal bytes mean the step map took the state to
itself, and every later step does too: the keeper gets the remaining
recorded steps in one call, and the loop goes on at t = max_steps, whose
record it makes from the f and c it already holds. nuPI's
first step (xi still None) and Adam's step counts are in the compared
state, so they never match; a row drop changes the arrays' shapes, so the
grid skips only when every remaining row repeats. With `stop_tolerance` the
streak moves only at recorded steps, so the skip is taken only where the
repeated state fails the tolerance test (there the dual increment is 0, so
where max |c| > stop_tolerance). The records, the stop reason and the
counters are those of stepping on.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from functools import partial
from typing import ClassVar

import numpy as np

from .core import (
    ConfigurationError,
    ConstrainedProblem,
    _project_theta,
    as_floats,
    as_int,
    as_real,
    as_vector,
    lagrangian_value,
    read_csv,
)
from .dual_optimizers import (
    AdamConfig,
    AdamState,
    DualOptimizerConfig,
    GAConfig,
    GAState,
    dual_step,
    apply_dual_restarts,
    gain_arrays,
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
        if not isinstance(self.kind, PrimalKind):
            raise ConfigurationError(f"primal kind must be a PrimalKind, got {self.kind!r}")
        object.__setattr__(self, "step_size",
                           as_real(self.step_size, "primal step_size", 0, strict=True))
        object.__setattr__(self, "momentum", as_real(self.momentum, "primal momentum"))


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
        for name in ("max_steps", "record_every"):
            object.__setattr__(self, name, as_int(getattr(self, name), name, 1))
        if not isinstance(self.dual_optimizer, DualOptimizerConfig):
            raise ConfigurationError("dual_optimizer must be a NuPIConfig, UMConfig, GAConfig "
                                     f"or AdamConfig, got {self.dual_optimizer!r}")
        if not isinstance(self.primal_optimizer, PrimalOptimizerConfig):
            raise ConfigurationError("primal_optimizer must be a PrimalOptimizerConfig, "
                                     f"got {self.primal_optimizer!r}")
        if not isinstance(self.dual_restarts, (bool, np.bool_)):
            raise ConfigurationError(f"dual_restarts must be a bool, got {self.dual_restarts!r}")
        object.__setattr__(self, "dual_restarts", bool(self.dual_restarts))
        if self.stop_tolerance is not None:
            object.__setattr__(self, "stop_tolerance",
                               as_real(self.stop_tolerance, "stop_tolerance", 0))


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


# Records start with at most this many rows and double when full (or grow to
# fit a range of repeated records at once). A run that
# stops early then holds columns sized by what it recorded, not by its step
# budget; budgets up to this size (50k steps plus two records) never grow.
_RECORDS_INITIAL_ROWS = 1 << 16


class Records(Sequence):
    """Records as columns, and the only code that builds one; rows [0, len)
    are filled, and item i is a `StepRecord` whose arrays are views of row i.
    As `run`'s keeper it is about one point: `keep` appends a record, and
    `finish` notes in `reason` why the run stopped.

    The Lagrangian is not stored: it is computed from f, c and theta when it
    is read, for one row or a range of rows in one `lagrangian_value` pass,
    bit for bit what that rule gives row by row."""

    _COLUMNS = ("t", "f", "x", "c", "theta")

    def __init__(self, rows: int, dim_primal: int, num_ineq: int, num_eq: int):
        rows = min(rows, _RECORDS_INITIAL_ROWS)
        self.num_ineq, self.size, self.reason = num_ineq, 0, None
        self.t = np.empty(rows, dtype=np.int64)
        self.f = np.empty(rows)
        self.x = np.empty((rows, dim_primal))
        self.c = np.empty((rows, num_ineq + num_eq))  # [g, h]
        self.theta = np.empty((rows, num_ineq + num_eq))  # [lam, mu]

    def append(self, t, x: np.ndarray, f: float, c: np.ndarray, theta: np.ndarray) -> None:
        """Append the record at step t, or, for a range of steps t, the same
        record at each of them (filled by broadcast)."""
        i = self.size
        if type(t) is range:
            rows = slice(i, i + len(t))
            end, t = rows.stop, np.arange(t.start, t.stop, t.step)
        else:
            rows, end = i, i + 1
        if end > len(self.t):
            for name in self._COLUMNS:
                old = getattr(self, name)
                grown = np.empty((max(2 * len(old), end),) + old.shape[1:], dtype=old.dtype)
                grown[:i] = old[:i]
                setattr(self, name, grown)
        self.t[rows], self.f[rows], self.x[rows], self.c[rows], self.theta[rows] = t, f, x, c, theta
        self.size = end

    @np.errstate(over="ignore", invalid="ignore")
    def _lagrange(self, rows):
        """The Lagrangian of `rows`, a row index or a slice. A row that
        overflows holds inf or nan, without numpy's warnings."""
        m, c, theta = self.num_ineq, self.c[rows], self.theta[rows]
        return lagrangian_value(self.f[rows], c[..., :m], c[..., m:], theta[..., :m],
                                theta[..., m:])

    @property
    def lagrangian(self) -> np.ndarray:
        """The Lagrangian of every row."""
        return self._lagrange(slice(0, self.size))

    def keep(self, rows, t, x, f, c, theta) -> None:
        self.append(t, x, f, c, theta)

    def finish(self, rows, t, x, f, c, theta, reason) -> None:
        if rows:
            self.reason = reason

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(self.size))]
        i, m = range(self.size)[i], self.num_ineq
        return StepRecord(t=int(self.t[i]), x=self.x[i], f=float(self.f[i]), g=self.c[i, :m],
                          h=self.c[i, m:], lam=self.theta[i, :m], mu=self.theta[i, m:],
                          lagrangian=float(self._lagrange(i)))


@dataclass
class Trajectory:
    """A run's records and why it stopped. `counters` holds the calls of
    the problem's two evaluations as the iteration order makes them: keyed
    `values`, one per iteration up to the final record's, except after a
    non-finite step, where x is not evaluated, and `primal_gradient`, one
    per primal step; steps past an exact fixed point count as if computed.
    The start check is not counted."""

    steps: Records
    terminated_reason: TerminationReason
    counters: dict = field(default_factory=dict)

    @property
    def final(self) -> StepRecord:
        return self.steps[-1]

    @property
    def overshoot(self) -> float:
        """`_overshoot` over every record (-inf when nothing counts)."""
        return float(_overshoot(self.column("g")))

    def column(self, name: str) -> np.ndarray:
        """A copy of one StepRecord field over all records, one row each."""
        cols, n, m = self.steps, len(self.steps), self.steps.num_ineq
        blocks = {"g": cols.c[:n, :m], "h": cols.c[:n, m:], "lam": cols.theta[:n, :m],
                  "mu": cols.theta[:n, m:]}
        return np.array(blocks[name] if name in blocks else getattr(cols, name)[:n])


@dataclass(frozen=True)
class _HeavyBallConfig:
    GAINS: ClassVar[tuple] = ("step_size", "momentum")

    step_size: float
    momentum: float


@dataclass
class _HeavyBallState:
    """Heavy-ball momentum: v <- momentum v + e, theta <- theta + step_size v,
    from v = 0."""

    theta: np.ndarray
    velocity: np.ndarray | None = None

    def __post_init__(self):
        if self.velocity is None:
            self.velocity = np.zeros_like(self.theta)

    def advance(self, config: _HeavyBallConfig, e: np.ndarray) -> _HeavyBallState:
        self.velocity = config.momentum * self.velocity + e
        self.theta = self.theta + config.step_size * self.velocity
        return self


# Each primal kind's gains and state class: descent along grad_x L with step
# eta is the ascent rule with the gain -eta, bit for bit (negation is exact,
# and x + (-y) is x - y).
_PRIMAL_RULES = {
    PrimalKind.GRADIENT_DESCENT: (lambda c: GAConfig(-c.step_size), GAState),
    PrimalKind.GRADIENT_DESCENT_MOMENTUM: (lambda c: _HeavyBallConfig(-c.step_size, c.momentum),
                                           _HeavyBallState),
    PrimalKind.ADAM: (lambda c: AdamConfig(-c.step_size), AdamState),
}


def _checked_start(problem: ConstrainedProblem, x0, theta0, lead: tuple = ()) -> tuple:
    """x0 and theta0 = [lam, mu] as new float64 arrays of shape lead +
    (dim_primal,) and lead + (num_constraints,), each given once for every
    row or once per row. Both must be finite and lam >= 0."""
    x0 = as_floats(x0, "x0", finite=True)  # parsed first: np.ndim fails on a ragged list
    x = as_vector(x0, problem.dim_primal, "x0", lead if x0.ndim > 1 else ())
    theta0 = as_floats(theta0, "theta0", finite=True)
    theta = as_vector(theta0, problem.num_constraints, "theta0", lead if theta0.ndim > 1 else ())
    if np.any(theta[..., :problem.num_ineq] < 0.0):
        raise ConfigurationError("initial inequality multipliers must be >= 0")
    return (np.array(np.broadcast_to(x, lead + x.shape[-1:])),
            np.array(np.broadcast_to(theta, lead + theta.shape[-1:])))


def _fields(obj) -> list:
    """(name, value) of each field of a rule's state. Read through `fields`,
    not `vars`: `vars` gives the instance a real __dict__, which makes every
    later attribute access slower."""
    return [(f.name, getattr(obj, f.name)) for f in fields(obj)]


def _keep_rows(rows, players, keeper, *arrays) -> tuple:
    """Keep `rows` of every per-row array: each player's (gains, state) pair's
    state and the keeper's (in place), and the players' gains (whose products
    it recomputes) and `arrays` (returned anew, in that order)."""
    for _, state in players:
        for name, value in _fields(state):
            if isinstance(value, np.ndarray):
                setattr(state, name, value[rows])
    keeper.drop(rows)
    return (*(replace(gains, **{name: getattr(gains, name)[rows] for name in gains.GAINS})
              for gains, _ in players),
            *(a[rows] for a in arrays))


# Up to this many entries, a vector's finiteness is tested on Python floats,
# which is faster than two ufunc calls.
_SHORT_VECTOR = 16


def _all_finite(a: np.ndarray) -> bool:
    # The ufunc reduce, as ndarray.all's Python wrapper costs more on short vectors.
    return np.logical_and.reduce(np.isfinite(a), axis=None)


def _finite_test(like: np.ndarray):
    """An exact test that every entry of an array shaped like `like` is finite."""
    if like.ndim == 1 and like.size <= _SHORT_VECTOR:
        return lambda a: all(map(math.isfinite, a.tolist()))
    return _all_finite


# Every this many steps the loop stores what it carries from one iteration to
# the next, to test at the following step whether the run sits on an exact
# fixed point.
_FIXED_POINT_EVERY = 256


def _carried(state, primal, streak, last_dual_increment) -> list:
    """What the loop carries from one iteration to the next, x in the primal
    state: arrays (and numpy scalars) by their bytes, so -0.0 and 0.0 or two
    NaN payloads differ, anything else (None, a step count) as it is. The
    gains are left out: they change only when rows are dropped, which
    changes x's shape."""
    values = [streak, last_dual_increment]
    values += [value for _, value in _fields(state) + _fields(primal)]
    return [v.tobytes() if isinstance(v, (np.ndarray, np.generic)) else v for v in values]


def _within(tolerance: float, error: np.ndarray, last_dual_increment) -> np.ndarray:
    """Per row, whether a recorded step counts toward the tolerance streak:
    max |c| and the last dual increment are both at most `tolerance`."""
    viol = np.maximum.reduce(np.abs(error), axis=-1, initial=0.0)
    return (viol <= tolerance) & (last_dual_increment <= tolerance)


# Overflow in a diverging run is flagged as NON_FINITE, without numpy's warnings.
@np.errstate(over="ignore", invalid="ignore")
def _descent_ascent(problem: ConstrainedProblem, x: np.ndarray, theta: np.ndarray,
                    config: LoopConfig, keeper) -> int:
    """The descent-ascent loop from the checked start x and theta = [lam, mu]:
    one point (dim_primal,) or K rows (K, dim_primal) in lockstep, whose dual
    config may hold per-row gains of shape (K, 1).

    Iteration t tests what the last step produced (x_t, and theta as the
    dual step gave it, before the projection), evaluates x_t and decides in
    one place which rows stop: a row non-finite in the step or at the
    evaluation, one whose tolerance streak completes (non-finite wins), and
    every row at t = `config.max_steps`, which takes no step. The keeper gets
    `keep(rows, t, x, f, c, theta)` at each step where `run` records, `rows`
    masking the rows that record (True: all), or once with a range of steps t
    that all record the same state, from where every row sits at an exact
    fixed point (the loop then goes to t = max_steps); then `finish(rows, ...,
    reason)` with the rows that stop, once per reason. When only some rows
    stop, they are dropped and `keeper.drop(rows)` gets the rows that go on.
    Returns the evaluations `run` makes: one per iteration, filled ones too,
    but none after a non-finite step."""
    # Picked once from the shapes; a stack reduces over all its rows.
    one = x.ndim == 1
    any_true = bool if one else partial(np.logical_or.reduce, axis=None)
    finite_f = math.isfinite if one else _all_finite
    finite_x, finite_theta = _finite_test(x), _finite_test(theta)  # c is shaped like theta
    problem.check_fused(x, theta)
    values, primal_gradient = problem.values, problem.primal_gradient
    m, num_constraints = problem.num_ineq, problem.num_constraints
    simultaneous = config.scheme is Scheme.SIMULTANEOUS
    tolerance = config.stop_tolerance
    state = make_dual_state(config.dual_optimizer, theta)
    dual = gain_arrays(config.dual_optimizer, theta.shape)
    gains, primal_state = _PRIMAL_RULES[config.primal_optimizer.kind]
    primal_gains, primal = gain_arrays(gains(config.primal_optimizer), x.shape), primal_state(x)
    streak = np.zeros(x.shape[:-1], dtype=np.int64)
    last_dual_increment = np.full(x.shape[:-1], np.inf)  # none before the first dual step
    keep, finish = keeper.keep, keeper.finish
    stepped = theta  # the dual step's output; the projection would turn -inf or nan into 0

    for t in range(config.max_steps + 1):
        theta_t, last = state.theta, t == config.max_steps
        stepped_finite = finite_x(x) and finite_theta(stepped)
        if stepped_finite:
            f, error = values(x)
        else:
            # A row that went non-finite records (t, x, nan, nan, theta), theta
            # holding the dual step's output where that is not finite. One
            # point is not evaluated: its nan c takes the shape of stepped.
            went = ~(np.logical_and.reduce(np.isfinite(x), axis=-1)
                     & np.logical_and.reduce(np.isfinite(stepped), axis=-1))
            f, error = (np.nan, stepped) if one else values(x)
            f, error = np.where(went, np.nan, f), np.where(went[..., None], np.nan, error)
            theta_t = np.where(np.isfinite(stepped), theta_t, stepped)
        if t % _FIXED_POINT_EVERY < 2:  # store the carried state at 0, compare at 1
            now = _carried(state, primal, streak, last_dual_increment)
            if t % _FIXED_POINT_EVERY == 0:
                carried = now
            elif now == carried and stepped_finite and (tolerance is None or not any_true(
                    _within(tolerance, error, last_dual_increment))):
                # Iteration t - 1 mapped the state to itself, so every later
                # one does too, and no tolerance streak can complete: the
                # steps left to record (the first is t rounded up to
                # record_every) record this state, as does max_steps.
                keep(True, range(t + -t % config.record_every, config.max_steps,
                                 config.record_every), x, f, error, theta_t)
                t, last = config.max_steps, True
        recorded = last or t % config.record_every == 0
        # One bool per check; per-row masks only at a step where a row stops.
        stop = last or not (finite_f(f) and finite_theta(error))
        if recorded and tolerance is not None and not last:
            streak = (streak + 1) * _within(tolerance, error, last_dual_increment)
            stop = stop or any_true(streak >= _STOP_PATIENCE)
        if stop:
            bad = ~(np.isfinite(f) & np.logical_and.reduce(np.isfinite(error), axis=-1))
            done = bad | (streak >= _STOP_PATIENCE) | last
            keep(recorded | bad, t, x, f, error, theta_t)
            finish(bad, t, x, f, error, theta_t, TerminationReason.NON_FINITE)
            # no streak advances at max_steps, so there only max_steps stops a finite row
            finish(done & ~bad, t, x, f, error, theta_t,
                   TerminationReason.MAX_STEPS if last else TerminationReason.TOLERANCE)
            if done.all():
                break
            dual, primal_gains, error, streak, last_dual_increment = _keep_rows(
                ~done, ((dual, state), (primal_gains, primal)), keeper, error, streak,
                last_dual_increment)
            x, theta_t = primal.theta, state.theta
        elif recorded:
            keep(True, t, x, f, error, theta_t)

        stepped = theta_t
        if num_constraints:
            stepped = dual_step(state, dual, error).theta
            theta = _project_theta(stepped, m)
            if config.dual_restarts and m:
                theta = apply_dual_restarts(theta, m, error[..., :m])
            replace_theta(state, theta)
            if tolerance is not None:
                last_dual_increment = np.maximum.reduce(np.abs(theta - theta_t), axis=-1)
        else:
            last_dual_increment = np.zeros(x.shape[:-1])

        grad = primal_gradient(x, theta_t if simultaneous else state.theta)
        x = primal.advance(primal_gains, grad).theta

    return t + stepped_finite


def run(problem: ConstrainedProblem, x0, theta0, config: LoopConfig) -> Trajectory:
    """Descent-ascent from x0 and the stacked multipliers theta0 = [lam, mu]
    under `config.scheme`: the alternating primal step sees the freshly
    updated multipliers, the simultaneous one the pre-update multipliers."""
    x, theta0 = _checked_start(problem, x0, theta0)
    records = Records(config.max_steps // config.record_every + 2, problem.dim_primal,
                      problem.num_ineq, problem.num_eq)
    evaluations = _descent_ascent(problem, x, theta0, config, records)
    # the final record's step is the primal steps taken
    counters = {"values": evaluations, "primal_gradient": records[-1].t}
    return Trajectory(steps=records, terminated_reason=records.reason, counters=counters)


def _overshoot(g: np.ndarray, running=-np.inf):
    """The running maximum, from `running` (shape ...) over the record rows
    of g (..., rows, num_ineq), of each row's largest over-satisfaction
    max_i max(-g_i, 0). A row holding a NaN is skipped and a row without
    inequalities counts -inf; the `overshoot` metric is max(0.0, this)."""
    per_row = np.max(np.maximum(-g, 0.0), axis=-1, initial=-np.inf)
    return np.fmax(running, np.max(per_row, axis=-1, initial=-np.inf, where=~np.isnan(per_row)))


@dataclass(frozen=True)
class _Cell:
    """What `_run_columns` keeps of one column: its final record, a row of
    `_Columns.finals`, why it stopped, and `Trajectory.overshoot` of the
    records `run` would keep."""

    final: StepRecord
    terminated_reason: TerminationReason
    overshoot: float


class _Columns:
    """`_run_columns`'s keeper: each row's running `_overshoot` over the
    records `run` would keep, the column each remaining row came from, and
    `finals`, one `Records` holding the final record of each row that stops,
    which the row's `_Cell` in `cells` wraps."""

    def __init__(self, cells: int, problem: ConstrainedProblem):
        self.m, self.column, self.over = problem.num_ineq, np.arange(cells), np.full(cells, -np.inf)
        self.finals = Records(cells, problem.dim_primal, problem.num_ineq, problem.num_eq)
        self.cells = [None] * cells

    def keep(self, rows, t, x, f, c, theta):
        self.over = np.where(rows, _overshoot(c[:, None, :self.m], self.over), self.over)

    def finish(self, rows, t, x, f, c, theta, reason):
        for i in np.flatnonzero(rows):
            self.finals.append(t, x[i], f[i], c[i], theta[i])
            self.cells[self.column[i]] = _Cell(self.finals[-1], reason, float(self.over[i]))

    def drop(self, rows):
        self.column, self.over = self.column[rows], self.over[rows]


def _run_columns(problem: ConstrainedProblem, x0, theta0, config: LoopConfig,
                 cells: int) -> list:
    """`run` for `cells` columns of one problem in lockstep: x is (cells,
    dim_primal) and theta (cells, num_constraints), and the dual config's
    array gains, of any rule, have shape (cells, 1), one row per column
    (scalar gains are shared). x0 and theta0 are one start for every column
    or one row each.

    The loop is `run`'s, so each column stops where `run` with its own gains
    stops, for the same reason, and is then dropped from the arrays. Its
    `_Cell` holds bit for bit that run's final record, termination reason
    and `Trajectory.overshoot`; no other record is kept. The problem's
    callables must accept stacks of points, as the built-in problems' do.
    """
    x, theta = _checked_start(problem, x0, theta0, (cells,))
    keeper = _Columns(cells, problem)
    _descent_ascent(problem, x, theta, config, keeper)
    return keeper.cells


# CSV serialization. Header: t,f,linf_g,linf_h,lagrangian,lambda_0..,mu_0..,x_0..
# Floats are written with 17 significant digits, which round-trips float64
# exactly; rows end in "\r\n", the csv module's line terminator. Row blocks
# bound the writer's memory. A row whose floats have the bits of the row
# before it (in this block or the last) reuses that row's text after t.
# Within a block, a column whose bits hold over the changed rows (an
# inactive multiplier projected to 0, say) is formatted once, and its text
# goes into the block's row format as a literal; float text has no "%".
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
    texts, last = [None], None  # texts[-1] and last: the previous row's tail and bits
    with open(path, "w", newline="") as fh:
        fh.write(f"# trajectory: {m} inequality multipliers, {n} equality multipliers, "
                 f"{d} primal coordinates; linf_* are infinity norms of g and h\n")
        fh.write(f"# terminated_reason: {trajectory.terminated_reason.value}\n")
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(cols), _CSV_BLOCK_ROWS):
            rows = slice(start, min(start + _CSV_BLOCK_ROWS, len(cols)))
            c = np.abs(cols.c[rows])
            block = np.column_stack([cols.f[rows], c[:, :m].max(axis=1, initial=0.0),
                                     c[:, m:].max(axis=1, initial=0.0), cols._lagrange(rows),
                                     cols.theta[rows], cols.x[rows]])
            bits = block.view(np.uint64)
            changed = np.empty(len(block), dtype=bool)
            changed[0] = last is None or bool((bits[0] != last).any())
            changed[1:] = (bits[1:] != bits[:-1]).any(axis=1)
            texts = texts[-1:]
            if changed.any():
                sub, sub_bits = block[changed], bits[changed]
                const = (sub_bits == sub_bits[0]).all(axis=0)
                tail = "".join(",%.17g" % value if held else ",%.17g"
                               for value, held in zip(sub[0].tolist(), const.tolist())) + "\r\n"
                texts += [tail % tuple(values) for values in sub[:, ~const].tolist()]
            # Each row is its t, then the tail of the last changed row at or
            # before it; the tails are shared, not copied per row.
            pieces = [None] * (2 * len(block))
            pieces[::2] = map(str, cols.t[rows].tolist())
            pieces[1::2] = map(texts.__getitem__, np.cumsum(changed).tolist())
            fh.write("".join(pieces))
            last = bits[-1].copy()


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
    t = arr[:, 0]
    whole = (t >= 0.0) & (t < 2.0**63) & (np.floor(t) == t)  # nan fails every test
    if not np.all(whole):
        lineno = rows[int(np.argmin(whole))][0]
        raise ConfigurationError(f"{path}:{lineno}: t must be a whole number >= 0")
    return TrajectoryTable(
        t=t.astype(int),
        f=arr[:, 1],
        linf_g=arr[:, 2],
        linf_h=arr[:, 3],
        lagrangian=arr[:, 4],
        lam=arr[:, 5:5 + m],
        mu=arr[:, 5 + m:5 + m + n],
        x=arr[:, 5 + m + n:5 + m + n + d],
        terminated_reason=reason,
    )
