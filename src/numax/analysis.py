"""Analysis tools for the controlled multiplier dynamics.

Two families live here. The first interprets a single nuPI update relative
to gradient ascent through the ratio

    ratio = (nuPI increment) / (GA increment) = 1/(1 - psi) * [1 - psi xi_{t-1} / e_t],
    psi   = kp (1 - nu) / (ki + kp (1 - nu)),

and classifies it into three qualitative modes (faster than GA, slower than
GA, opposite direction). The second studies the continuous-time gradient
descent / PI ascent flow on an equality-constrained QP

    min 1/2 x'Hx + c'x   s.t.   Ax - b = 0,

whose velocity dynamics are governed by the block matrix U; the spectrum of
-U determines whether the flow diverges, oscillates, or is critically or
overdamped, and the proportional gain kp moves the system between these
regimes.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import ConfigurationError, NumericalError


@dataclass(frozen=True)
class RatioInputs:
    kp: float
    ki: float
    nu: float
    xi_prev: float
    e_t: float


def update_mix(inputs: RatioInputs) -> float:
    """psi = kp(1-nu) / (ki + kp(1-nu)); the proportional share of the update."""
    prop = inputs.kp * (1.0 - inputs.nu)
    denom = inputs.ki + prop
    if denom == 0.0:
        raise ConfigurationError("ki + kp(1-nu) = 0; psi is undefined")
    return prop / denom


def relative_update_ratio(inputs: RatioInputs) -> float:
    """One-step nuPI increment divided by the GA(alpha=ki) increment."""
    psi = update_mix(inputs)
    if psi == 1.0:
        raise ConfigurationError("psi = 1 (ki = 0); ratio is undefined")
    if inputs.e_t == 0.0:
        raise NumericalError("GA step is zero; ratio undefined")
    return 1.0 / (1.0 - psi) * (1.0 - psi * inputs.xi_prev / inputs.e_t)


class Mode(Enum):
    """Qualitative behavior of one nuPI update versus gradient ascent, for
    xi_{t-1} > 0 and psi in (0, 1): A moves faster than GA, B slower, C in
    the opposite direction ("optimistic" decrease while still infeasible)."""

    A = "A"
    B = "B"
    C = "C"


def classify_mode(inputs: RatioInputs) -> Mode:
    """Boundary convention: e = xi_{t-1} belongs to B, e = psi xi_{t-1}
    (ratio exactly zero) and e = 0 belong to C."""
    if not inputs.xi_prev > 0.0:
        raise ConfigurationError(f"classify_mode requires xi_prev > 0, got {inputs.xi_prev}")
    psi = update_mix(inputs)
    if not 0.0 < psi < 1.0:
        raise ConfigurationError(f"classify_mode requires psi in (0, 1), got {psi}")
    e = inputs.e_t
    if e < 0.0 or e > inputs.xi_prev:
        return Mode.A
    if e > psi * inputs.xi_prev:
        return Mode.B
    return Mode.C


@dataclass(frozen=True)
class QPSystem:
    """Equality-constrained QP with PI gains attached: H (n x n, symmetric
    PSD), A (c x n), b (c,), c_lin (n,)."""

    H: np.ndarray
    A: np.ndarray
    b: np.ndarray
    c_lin: np.ndarray
    kp: float
    ki: float

    def __post_init__(self):
        H = np.atleast_2d(np.asarray(self.H, dtype=np.float64))
        A = np.atleast_2d(np.asarray(self.A, dtype=np.float64))
        b = np.atleast_1d(np.asarray(self.b, dtype=np.float64))
        c_lin = np.atleast_1d(np.asarray(self.c_lin, dtype=np.float64))
        for name, value in dict(H=H, A=A, b=b, c_lin=c_lin, kp=self.kp, ki=self.ki).items():
            if not np.all(np.isfinite(value)):
                raise ConfigurationError(f"{name} must be finite")
        n = H.shape[0]
        if H.shape != (n, n):
            raise ConfigurationError(f"H must be square, got {H.shape}")
        if np.max(np.abs(H - H.T), initial=0.0) > 1e-12:
            raise ConfigurationError("H must be symmetric to 1e-12")
        if A.shape[1] != n:
            raise ConfigurationError(f"A has {A.shape[1]} columns, expected {n}")
        if b.shape != (A.shape[0],):
            raise ConfigurationError(f"b must have length {A.shape[0]}, got {b.size}")
        if c_lin.shape != (n,):
            raise ConfigurationError(f"c_lin must have length {n}, got {c_lin.size}")
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c_lin", c_lin)

    @property
    def dim_primal(self) -> int:
        return self.H.shape[0]

    @property
    def num_constraints(self) -> int:
        return self.A.shape[0]


def qp_system_matrix(sys: QPSystem) -> np.ndarray:
    """U = [[H, A'], [A (kp H - ki I), kp A A']]; the velocity state
    [xdot, mudot] of the flow obeys d/dt [xdot, mudot] = -U [xdot, mudot]."""
    H, A = sys.H, sys.A
    n = sys.dim_primal
    top = np.hstack([H, A.T])
    bottom = np.hstack([A @ (sys.kp * H - sys.ki * np.eye(n)), sys.kp * (A @ A.T)])
    return np.vstack([top, bottom])


def eigen_1d(h: float, a: float, kp: float, ki: float) -> tuple:
    """Closed-form spectrum of -U for one primal variable and one constraint:

        lambda = [-(h + kp a^2) +- sqrt((h + kp a^2)^2 - 4 a^2 ki)] / 2
    """
    s = h + kp * a * a
    disc = s * s - 4.0 * a * a * ki
    root = cmath.sqrt(complex(disc, 0.0))
    return ((-s + root) / 2.0, (-s - root) / 2.0)


@dataclass(frozen=True)
class CriticalGains:
    """The two kp values with coincident eigenvalues (zero discriminant);
    `convergent` is kp_plus when h + kp_plus a^2 > 0, else None."""

    kp_plus: float
    kp_minus: float
    convergent: float | None


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # raised as a NumericalError
def critical_kp(h: float, a: float, ki: float) -> CriticalGains:
    """kp* = (-h +- 2|a| sqrt(ki)) / a^2. The eigenvalue at kp* is
    -(h + kp* a^2)/2, so only the larger root can give a convergent system:
    every rounded operation here is monotone, so h + kp_minus a^2 never
    exceeds h + kp_plus a^2 in floating point either."""
    if a == 0.0:
        raise ConfigurationError("critical_kp requires a != 0")
    if ki < 0.0:
        raise ConfigurationError("critical_kp requires ki >= 0")
    a2 = a * a
    spread = 2.0 * abs(a) * np.sqrt(ki)
    kp_plus = (-h + spread) / a2
    kp_minus = (-h - spread) / a2
    if not (np.isfinite(kp_plus) and np.isfinite(kp_minus)):
        raise NumericalError(f"critical gains overflow: kp = {kp_plus}, {kp_minus}")
    convergent = kp_plus if h + kp_plus * a2 > 0.0 else None
    return CriticalGains(kp_plus=kp_plus, kp_minus=kp_minus, convergent=convergent)


class RegimeKind(Enum):
    DIVERGENT_MONOTONE = "divergent-monotone"
    DIVERGENT_OSCILLATORY = "divergent-oscillatory"
    UNDERDAMPED = "underdamped"
    CRITICALLY_DAMPED = "critically-damped"
    OVERDAMPED = "overdamped"
    MARGINAL = "marginal"


@dataclass(frozen=True)
class DampingRegime:
    kind: RegimeKind
    eigenvalues: tuple


# |Re| below this (relative) threshold counts as a zero real part; pure
# rotation (bilinear GDA) is reported as MARGINAL rather than misclassified.
_ZERO_REAL_TOL = 1e-12
# Relative tolerance under which eigenvalues count as repeated.
_REPEAT_TOL = 1e-9


def classify_regime(eigenvalues) -> DampingRegime:
    """Classify the spectrum of -U (continuous-time convention: negative
    real parts converge). A non-finite eigenvalue is a NumericalError."""
    eigs = tuple(complex(v) for v in np.atleast_1d(np.asarray(eigenvalues, dtype=complex)))
    if not eigs:
        raise ConfigurationError("classify_regime requires at least one eigenvalue")
    if not all(cmath.isfinite(v) for v in eigs):
        raise NumericalError(f"non-finite eigenvalues {eigs}")

    def scale(v):
        return max(1.0, abs(v))

    kind = None
    if any(abs(v.real) <= _ZERO_REAL_TOL * scale(v) for v in eigs):
        kind = RegimeKind.MARGINAL
    else:
        all_real = all(abs(v.imag) <= _ZERO_REAL_TOL * scale(v) for v in eigs)
        if any(v.real > 0.0 for v in eigs):
            kind = RegimeKind.DIVERGENT_MONOTONE if all_real else RegimeKind.DIVERGENT_OSCILLATORY
        elif not all_real:
            kind = RegimeKind.UNDERDAMPED
        else:
            repeated = any(
                abs(eigs[i] - eigs[j]) <= _REPEAT_TOL * max(scale(eigs[i]), scale(eigs[j]))
                for i in range(len(eigs)) for j in range(i + 1, len(eigs))
            )
            kind = RegimeKind.CRITICALLY_DAMPED if repeated and len(eigs) > 1 else RegimeKind.OVERDAMPED
    return DampingRegime(kind=kind, eigenvalues=eigs)


def flow_state_matrix(sys: QPSystem) -> np.ndarray:
    """State matrix M of zdot = M z for z = [x, mu, xdot, mudot]:
    M = [[0, I], [0, -U]] blockwise over dimension n + c, so positions
    integrate the velocities and the spectrum is {0} union spec(-U)."""
    k = sys.dim_primal + sys.num_constraints
    M = np.zeros((2 * k, 2 * k))
    M[:k, k:] = np.eye(k)
    M[k:, k:] = -qp_system_matrix(sys)
    return M


@dataclass
class FlowResult:
    """Sampled continuous-time flow: times plus x, mu and their velocities
    (rows indexed by sample)."""

    times: np.ndarray
    x: np.ndarray
    mu: np.ndarray
    xdot: np.ndarray
    mudot: np.ndarray
    flagged: bool  # True when integration stopped early on non-finite state


def default_flow_dt(sys: QPSystem) -> float:
    """Fixed integration step 0.01 / max(1, spectral radius of U)."""
    radius = float(np.max(np.abs(np.linalg.eigvals(qp_system_matrix(sys)))))
    return 0.01 / max(1.0, radius)


def flow_initial_state(sys: QPSystem, x0, mu0) -> np.ndarray:
    """Initial state consistent with the first-order flow: xdot(0) follows
    the primal descent direction and mudot(0) the PI ascent direction."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=np.float64))
    mu0 = np.atleast_1d(np.asarray(mu0, dtype=np.float64))
    if x0.shape != (sys.dim_primal,):
        raise ConfigurationError(f"x0 must have length {sys.dim_primal}")
    if mu0.shape != (sys.num_constraints,):
        raise ConfigurationError(f"mu0 must have length {sys.num_constraints}")
    xdot0 = -(sys.H @ x0 + sys.c_lin + sys.A.T @ mu0)
    mudot0 = sys.ki * (sys.A @ x0 - sys.b) + sys.kp * (sys.A @ xdot0)
    return np.concatenate([x0, mu0, xdot0, mudot0])


# simulate_flow advances this many stored samples per matrix product.
_FLOW_BLOCK = 128
# Sample times are summed over at most this many steps at a time: a horizon
# can span far more steps than it stores samples.
_TIME_CHUNK = 1 << 16
# The most RK4 steps one horizon may span. Summing the sample times costs
# about 5 ns per step, so this many take about 5 s; a longer horizon is refused.
_MAX_FLOW_STEPS = 10**9


def _stride_times(dt: float, stride: int, count: int) -> np.ndarray:
    """The time after each of the first `count` multiples of `stride` steps,
    summed one step at a time exactly as `t += dt` would (np.cumsum adds in
    order)."""
    times = np.empty(count)
    t = 0.0
    for start in range(0, count * stride, _TIME_CHUNK):
        stop = min(count * stride, start + _TIME_CHUNK)
        increments = np.full(stop - start + 1, dt)
        increments[0] = t
        elapsed = np.cumsum(increments)  # elapsed[j]: the time after start + j steps
        k = np.arange(start // stride + 1, stop // stride + 1)
        times[k - 1] = elapsed[k * stride - start]
        t = elapsed[-1]
    return times


def simulate_flow(sys: QPSystem, x0, mu0, dt: float | None = None,
                  t_end: float = 10.0, max_samples: int = 20001) -> FlowResult:
    """Integrate the linear flow with classical fixed-step RK4.

    Every step applies the constant RK4 matrix R and advances by dt, plus one
    final shorter step R_rem so that the last sample lands exactly on t_end.
    When the horizon spans more steps than max_samples, only every stride-th
    state is stored. The stored states are advanced in blocks: with S =
    R^stride and P_k = S^k for k = 1..B (B = 128), one product P[:m] @ z
    gives the next m samples from the last one. The full steps left over
    after the last whole stride, and R_rem, are applied one at a time. The
    sample times are summed step by step, as t += dt would.

    The run stops, flagged, at the first stored state that is not finite.
    The powers of S can overflow before the state does (a diverging flow
    from a tiny start), so a block with a non-finite row is stepped again
    from its first state with single R steps, and the flag falls on the
    sample where a stepwise integration puts it.

    dt (default: `default_flow_dt`) must be finite and positive, t_end
    finite and >= 0 with a step count t_end / dt of at most 1e9
    (`_MAX_FLOW_STEPS`), and max_samples an integer >= 2; anything else is a
    ConfigurationError, raised before any work starts.
    """
    if dt is not None and not (np.isfinite(dt) and dt > 0.0):
        raise ConfigurationError(f"dt must be finite and positive, got {dt!r}")
    if not (np.isfinite(t_end) and t_end >= 0.0):
        raise ConfigurationError(f"t_end must be finite and >= 0, got {t_end!r}")
    if not (isinstance(max_samples, (int, np.integer)) and max_samples >= 2):
        raise ConfigurationError(f"max_samples must be an integer >= 2, got {max_samples!r}")
    if dt is None:
        dt = default_flow_dt(sys)
    if not float(t_end) / float(dt) <= _MAX_FLOW_STEPS:  # an infinite ratio fails too
        raise ConfigurationError(f"t_end / dt must be at most {_MAX_FLOW_STEPS:.0e} steps, "
                                 f"got {t_end!r} / {dt!r}")
    M = flow_state_matrix(sys)
    z = flow_initial_state(sys, x0, mu0)
    n, c = sys.dim_primal, sys.num_constraints
    dim = M.shape[0]

    num_full = int(np.floor(t_end / dt + 1e-12))
    remainder = t_end - num_full * dt
    has_remainder = remainder > 1e-12 * max(1.0, t_end)
    total_steps = num_full + (1 if has_remainder else 0)
    stride = max(1, -(-total_steps // (max_samples - 1)))
    strided = num_full // stride  # samples reached by whole strides of full steps
    has_tail = total_steps > strided * stride

    def rk4_operator(step):
        # One classical RK4 step of zdot = Mz is the constant linear map
        # I + step M + step^2 M^2/2 + step^3 M^3/6 + step^4 M^4/24.
        R = np.eye(dim)
        term = np.eye(dim)
        for order in range(1, 5):
            term = term @ (step / order * M)
            R = R + term
        return R

    R = rk4_operator(dt)
    states = np.empty((1 + strided + has_tail, dim))
    states[0] = z
    times = np.zeros(len(states))
    times[1:1 + strided] = _stride_times(dt, stride, strided)
    stored = 1
    flagged = False

    # `flagged` reports a diverging flow, so its overflow warnings are suppressed.
    with np.errstate(over="ignore", invalid="ignore"):
        block = min(_FLOW_BLOCK, strided)
        powers = np.empty((block, dim, dim))  # powers[k] = S^(k+1)
        if block:
            powers[0] = np.linalg.matrix_power(R, stride)
        for k in range(1, block):
            np.matmul(powers[k - 1], powers[0], out=powers[k])
        stacked = powers.reshape(block * dim, dim)

        while stored <= strided and not flagged:
            m = min(block, strided + 1 - stored)
            out = states[stored:stored + m]  # contiguous rows, so the reshape is a view
            np.matmul(stacked[:m * dim], states[stored - 1], out=out.reshape(m * dim))
            if not np.isfinite(out).all():
                z = states[stored - 1]
                for row in range(m):
                    for _ in range(stride):
                        z = R @ z
                    if not np.isfinite(z).all():
                        flagged = True
                        m = row
                        break
                    out[row] = z
            stored += m

        if has_tail and not flagged:
            z, t = states[stored - 1], times[stored - 1]
            for _ in range(num_full - strided * stride):
                z = R @ z
                t += dt
            if has_remainder:
                z = rk4_operator(remainder) @ z
                t += remainder
            if np.isfinite(z).all():
                states[stored], times[stored] = z, t
                stored += 1
            else:
                flagged = True

    arr = states[:stored]
    return FlowResult(
        times=times[:stored],
        x=arr[:, :n],
        mu=arr[:, n:n + c],
        xdot=arr[:, n + c:2 * n + c],
        mudot=arr[:, 2 * n + c:],
        flagged=flagged,
    )


def kkt_solve_qp(sys: QPSystem) -> tuple:
    """Solve the stationarity system K [x; mu] = [[H, A'], [A, 0]] [x; mu] =
    [-c; b]. The residuals must be finite and at most 1e-9 of |K| |[x; mu]| +
    |[c; b]| (max norms); otherwise, and for a singular system, the error
    names a condition estimate."""
    n, c = sys.dim_primal, sys.num_constraints
    K = np.zeros((n + c, n + c))
    K[:n, :n] = sys.H
    K[:n, n:] = sys.A.T
    K[n:, :n] = sys.A
    rhs = np.concatenate([-sys.c_lin, sys.b])
    try:
        sol = np.linalg.solve(K, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"singular KKT matrix (condition estimate {np.linalg.cond(K):.3e})"
        ) from exc
    x_star, mu_star = sol[:n], sol[n:]
    with np.errstate(over="ignore", invalid="ignore"):  # overflow and nan are refused below
        stat = np.max(np.abs(sys.H @ x_star + sys.c_lin + sys.A.T @ mu_star), initial=0.0)
        feas = np.max(np.abs(sys.A @ x_star - sys.b), initial=0.0)
        scale = (np.max(np.abs(K).sum(axis=1)) * np.max(np.abs(sol), initial=0.0)
                 + np.max(np.abs(rhs), initial=0.0))
    if not (np.isfinite(scale) and max(stat, feas) <= 1e-9 * scale):
        raise NumericalError(
            f"KKT solve residuals too large (stationarity {stat:.3e}, feasibility "
            f"{feas:.3e}, scale {scale:.3e}); condition estimate {np.linalg.cond(K):.3e}"
        )
    return x_star, mu_star
