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
import numbers
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .core import ConfigurationError, NumericalError, as_floats, as_int, as_real, as_vector


@dataclass(frozen=True)
class RatioInputs:
    """One nuPI update's gains, xi_{t-1} and e_t, each parsed by `as_real`."""

    kp: float
    ki: float
    nu: float
    xi_prev: float
    e_t: float

    def __post_init__(self):
        for spec in fields(self):
            object.__setattr__(self, spec.name, as_real(getattr(self, spec.name), spec.name))


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
    PSD), A (c x n), b (c,), c_lin (n,), each an array of finite numbers of
    that shape, with n the rows of H and c the rows of A (a 1-D H or A is
    refused); kp and ki are stored as floats."""

    H: np.ndarray
    A: np.ndarray
    b: np.ndarray
    c_lin: np.ndarray
    kp: float
    ki: float

    def __post_init__(self):
        # n and c are the rows of H and A; a 0-D H or A has shape (), which is refused
        n, c = (len(v) if v.ndim else 1 for v in (as_floats(self.H, "H"), as_floats(self.A, "A")))
        for name, shape in {"H": (n, n), "A": (c, n), "b": (c,), "c_lin": (n,)}.items():
            parsed = as_vector(getattr(self, name), shape[-1], name, shape[:-1], finite=True)
            object.__setattr__(self, name, parsed)
        object.__setattr__(self, "kp", as_real(self.kp, "kp"))
        object.__setattr__(self, "ki", as_real(self.ki, "ki"))
        if np.max(np.abs(self.H - self.H.T), initial=0.0) > 1e-12:
            raise ConfigurationError("H must be symmetric to 1e-12")

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

    Each argument is parsed by `as_real`; entries so large that the formula
    overflows are a NumericalError.
    """
    h, a, kp, ki = map(as_real, (h, a, kp, ki), ("h", "a", "kp", "ki"))
    s = h + kp * a * a
    disc = s * s - 4.0 * a * a * ki
    root = cmath.sqrt(complex(disc, 0.0))
    eigs = ((-s + root) / 2.0, (-s - root) / 2.0)
    if not all(cmath.isfinite(v) for v in eigs):
        raise NumericalError(f"eigenvalues overflow: h + kp a^2 = {s}, discriminant {disc}")
    return eigs


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
    exceeds h + kp_plus a^2 in floating point either. Each argument is
    parsed by `as_real`."""
    h, a = map(as_real, (h, a), ("h", "a"))
    if a == 0.0:
        raise ConfigurationError("critical_kp requires a != 0")
    if isinstance(ki, numbers.Real) and ki < 0.0:  # -inf too, before as_real refuses it
        raise ConfigurationError("critical_kp requires ki >= 0")
    ki = as_real(ki, "ki")
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
    real parts converge), given as complex numbers in an array of any shape.
    What numpy cannot read as complex numbers is a ConfigurationError, a
    non-finite eigenvalue a NumericalError."""
    eigs = tuple(as_floats(eigenvalues, "eigenvalues", dtype=complex).ravel().tolist())
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
    flagged: bool  # True when a state, the start included, is not finite


def default_flow_dt(sys: QPSystem) -> float:
    """Fixed integration step 0.01 / max(1, spectral radius of U). Entries so
    large that U or its spectral radius overflows leave no step to take: a
    NumericalError (an explicit dt flags such a flow instead)."""
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        U = qp_system_matrix(sys)
        radius = float(np.max(np.abs(np.linalg.eigvals(U)))) if np.isfinite(U).all() else np.inf
    if not np.isfinite(radius):
        raise NumericalError("the spectral radius of U overflows, so there is no default dt")
    return 0.01 / max(1.0, radius)


def flow_initial_state(sys: QPSystem, x0, mu0) -> np.ndarray:
    """Initial state consistent with the first-order flow: xdot(0) follows
    the primal descent direction and mudot(0) the PI ascent direction."""
    x0 = as_vector(x0, sys.dim_primal, "x0")
    mu0 = as_vector(mu0, sys.num_constraints, "mu0")
    xdot0 = -(sys.H @ x0 + sys.c_lin + sys.A.T @ mu0)
    mudot0 = sys.ki * (sys.A @ x0 - sys.b) + sys.kp * (sys.A @ xdot0)
    return np.concatenate([x0, mu0, xdot0, mudot0])


# simulate_flow stacks this many powers of its step matrix, or more while the
# stack stays within _FLOW_STACK floats (256 KB); one product with the stack
# advances as many stored samples.
_FLOW_BLOCK = 128
_FLOW_STACK = 1 << 15
# The most RK4 steps one horizon may span; a longer horizon is refused. A
# sample stepped one R at a time takes a whole stride or the full steps left
# over after the last one, and a stride can span t_end / dt steps.
_MAX_FLOW_STEPS = 10**9


def _flow_block(dim: int, strided: int) -> int:
    """How many stored samples one product of `simulate_flow` advances: the
    number of powers S, S^2, ... it stacks for a state of size `dim`."""
    return min(strided, max(_FLOW_BLOCK, _FLOW_STACK // dim**2))


def _finite_rows(a: np.ndarray) -> int:
    """How many leading rows of the 2-D array `a` are finite."""
    return int(np.logical_and.accumulate(np.isfinite(a).all(axis=1)).sum())


# `flagged` reports a diverging flow, so its overflow warnings are suppressed:
# huge entries overflow M, and a huge dt overflows R, which flags the flow once
# it is applied.
@np.errstate(over="ignore", invalid="ignore")
def simulate_flow(sys: QPSystem, x0, mu0, dt: float | None = None,
                  t_end: float = 10.0, max_samples: int = 20001) -> FlowResult:
    """Integrate the linear flow with classical fixed-step RK4.

    Every step applies the constant RK4 matrix R and advances by dt, plus one
    final shorter step R_rem so that the last sample lands exactly on t_end.
    When the horizon spans more steps than max_samples, only every stride-th
    state is stored. The stored states are advanced in blocks: with S =
    R^stride and P_k = S^k for k = 1..B, one product P[:m] @ z gives the
    next m samples from the last one. B = min(samples, max(128, 2^15 /
    dim^2)) (`_flow_block`), so the stack of powers holds 128 of them or at
    most 256 KB, and it is built by doubling, in log2 B products. Any other
    sample is stepped from the one before it one R at a time: the tail (the
    full steps left over after the last whole stride, then R_rem) and a
    strided sample that the finite powers of S do not give. The k-th stored
    sample is at time float(k stride) dt, rounded once; a last sample that
    ends with R_rem is at t_end itself, and one that ends after whole steps
    only at (number of full steps) dt.

    The run stops, flagged, at the first state that is not finite. The
    powers of S can overflow before the state does (a diverging flow from a
    tiny start), so only the finite powers are used, and the first
    non-finite row of a block is stepped again from the row before: the flag
    falls on the sample where a stepwise integration puts it. Huge entries,
    which overflow M itself, flag the flow without a warning too; a start
    that overflows is returned, flagged, as the only sample, whatever the
    horizon.

    dt (default: `default_flow_dt`) is parsed by `as_real` as > 0, t_end as
    >= 0, with a step count t_end / dt of at most 1e9 (`_MAX_FLOW_STEPS`),
    and max_samples by `as_int` as >= 2; anything else is a
    ConfigurationError, raised before any work starts.
    """
    if dt is not None:
        dt = as_real(dt, "dt", 0, strict=True)
    t_end = as_real(t_end, "t_end", 0)
    max_samples = as_int(max_samples, "max_samples", 2)
    if dt is None:
        dt = default_flow_dt(sys)
    if not t_end / dt <= _MAX_FLOW_STEPS:  # an infinite ratio fails too
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

    states = np.empty((1 + strided + has_tail, dim))
    states[0] = z
    times = np.zeros(len(states))
    times[1:1 + strided] = np.arange(1, strided + 1) * stride * dt
    if has_tail:
        times[-1] = t_end if has_remainder else num_full * dt

    R = rk4_operator(dt)
    block = _flow_block(dim, strided)
    stacked = np.empty((block * dim, dim))  # rows k dim .. (k + 1) dim - 1 hold S^(k+1)
    if block:
        stacked[:dim] = np.linalg.matrix_power(R, stride)
    done = 1
    while done < block:  # S^(done+1) .. S^(done+more) = (S^1 .. S^more) S^done
        more = min(done, block - done)
        np.matmul(stacked[:more * dim], stacked[(done - 1) * dim:done * dim],
                  out=stacked[done * dim:(done + more) * dim])
        done += more
    # An overflowed power overflows every sample it gives: use the finite ones.
    block = _finite_rows(stacked.reshape(block, dim * dim))

    stored = 1
    while stored < len(states):
        m = min(block, strided + 1 - stored)  # 0 in the tail and with no finite power
        out = states[stored:stored + m]  # contiguous rows, so the reshape is a view
        np.matmul(stacked[:m * dim], states[stored - 1], out=out.reshape(m * dim))
        if m and np.isfinite(out).all():  # checked whole first: 10x cheaper than by rows
            stored += m
            continue
        # Step the next sample one R at a time from the last finite row: a
        # strided sample the finite powers of S do not give (the flag falls
        # where a stepwise integration puts it), or the tail, then R_rem.
        stored += _finite_rows(out)
        tail = stored > strided
        z = states[stored - 1]
        for _ in range(num_full - strided * stride if tail else stride):
            z = R @ z
        if tail and has_remainder:
            z = rk4_operator(remainder) @ z
        if not np.isfinite(z).all():
            break
        states[stored] = z
        stored += 1

    arr = states[:stored]
    return FlowResult(
        times=times[:stored],
        x=arr[:, :n],
        mu=arr[:, n:n + c],
        xdot=arr[:, n + c:2 * n + c],
        mudot=arr[:, 2 * n + c:],
        flagged=stored < len(states) or not np.isfinite(states[0]).all(),
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
