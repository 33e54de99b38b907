"""Update rules for Lagrange multipliers.

Every rule acts componentwise on the stacked multiplier vector theta =
[lam, mu], driven by the error e_t = c(x_t). Each rule is written once, as
the `advance(config, e)` method that updates its mutable state in place.
`make_dual_state` builds a state (each fills its own zero buffers from theta),
`checked_dual_step` checks the error and advances a copy (pure), `dual_step`
advances the caller's state unchecked. No step projects: the driver writes
the projected (and restarted) stacked theta back into the state
(`replace_theta`) and the recursion continues from it. The loop also steps
x with GA's and Adam's rules, as ascent along grad_x L with the gain -eta.

Because every rule is elementwise, one state can carry K independent
columns: theta of shape (K, n), an error of the same shape, and a config
whose gains are arrays of shape (K, 1), one row per column. Column k then
equals the run with the scalar gains of row k bit for bit.

A config holds its gains (the fields named in its `GAINS`), each checked
when the config is built (`_check_gains`), and, as fields set in
`__post_init__`, the products of gains its update uses, so a step computes
no product of gains. Before the first step the loop passes
`gain_arrays(config, theta.shape)`: the same config with every gain a
float64 array of theta's shape, which costs a few theta-sized arrays per
run and lets every operation of a step multiply arrays of one shape, with
no broadcast of a (K, 1) gain and no Python-float operand. Every entry is
the bits the scalar gain gives.

The nuPI controller follows the recursion

    theta_1     = theta_0 + ki * e_0 + kp * xi_0
    xi_t        = nu * xi_{t-1} + (1 - nu) * e_t
    theta_{t+1} = theta_t + ki * e_t + kp * (1 - nu) * (e_t - xi_{t-1})   (t >= 1)

which is equivalent to accumulating ki * sum(e) plus kp times an exponential
moving average of the errors. nu = 0 gives a classical PI controller;
kp = 0 gives plain gradient ascent with step ki. The start xi_0 is e_0
(`Xi0Policy.MATCH_ERROR`, the default) or (1 - nu) * e_0 (`MATCH_UM`, which
`map_um_to_nupi` sets so that nuPI reproduces unified momentum).

The nuPI, unified-momentum and GA rules and `map_um_to_nupi` use only +, -,
* and / (`1 - nu` is written with an int, whose bits for a float nu are
those of `1.0 - nu`), so they are exact over any number type that numpy
object arrays carry: with `fractions.Fraction` gains and states built
directly on object arrays, the identities above hold with no rounding.
Adam is not exact: it takes a square root. `make_dual_state` and
`gain_arrays` cast to float64, which is the loop's path.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import ClassVar

import numpy as np

from .core import ConfigurationError, NumericalError, as_floats, as_vector, is_finite_real


def _checked_error(error, theta: np.ndarray) -> np.ndarray:
    e = as_vector(error, theta.shape[-1], "error signal", theta.shape[:-1])
    if not np.all(np.isfinite(e)):
        bad = np.flatnonzero(~np.isfinite(e))
        raise NumericalError(
            f"step rejected: non-finite error entries at indices {bad.tolist()}"
        )
    return e


class Xi0Policy(Enum):
    """How the EMA state xi_0 is initialized on the first step."""

    MATCH_ERROR = "match-error"  # xi_0 = e_0; first step equals gradient ascent
    MATCH_UM = "match-um"        # xi_0 = (1 - nu) * e_0; set by the momentum mapper


def _product():
    """A field that `__post_init__` computes from the gains."""
    return field(init=False, repr=False, compare=False)


def _check_gains(config) -> None:
    """Refuse any gain of `config` that is neither a finite real number (not
    a bool) nor a float array of finite entries, such as per-row (K, 1) gains
    or `gain_arrays`' arrays; the error names the class and the field."""
    for name in config.GAINS:
        value = getattr(config, name)
        if isinstance(value, np.ndarray):
            ok = value.dtype.kind == "f" and bool(np.isfinite(value).all())
        else:
            ok = is_finite_real(value)
        if not ok:
            raise ConfigurationError(f"{type(config).__name__} {name} must be a finite number "
                                     f"or a float array of them, got {value!r}")


@dataclass(frozen=True)
class NuPIConfig:
    GAINS: ClassVar[tuple] = ("nu", "kp", "ki")

    nu: float
    kp: float
    ki: float
    xi0_policy: Xi0Policy = Xi0Policy.MATCH_ERROR
    one_minus_nu: float = _product()     # 1 - nu
    kp_one_minus_nu: float = _product()  # kp * (1 - nu)

    def __post_init__(self):
        _check_gains(self)
        if not isinstance(self.xi0_policy, Xi0Policy):
            raise ConfigurationError("NuPIConfig xi0_policy must be a Xi0Policy, "
                                     f"got {self.xi0_policy!r}")
        object.__setattr__(self, "one_minus_nu", 1 - self.nu)
        object.__setattr__(self, "kp_one_minus_nu", self.kp * self.one_minus_nu)


def _named(name: str, value, bad) -> str:
    """A gain as a warning names it: a scalar by its value, per-row gains by
    how many rows the test `bad` flags."""
    if np.ndim(bad) == 0:
        return f"{name} = {value}"
    rows = np.reshape(bad, (len(bad), -1)).any(axis=1)
    return f"{name} ({np.count_nonzero(rows)} of {len(rows)} rows)"


def nupi_config_warnings(config: NuPIConfig) -> list:
    """Soft validation; out-of-range values are permitted but flagged, for a
    scalar gain or elementwise for per-row gains."""
    warnings = []
    ki, nu = as_floats(config.ki, "ki"), as_floats(config.nu, "nu")
    if np.any(bad := ki <= 0):
        warnings.append(f"{_named('ki', config.ki, bad)} is not positive; "
                        "the integral term will not ascend")
    if np.any(bad := ~((-1.0 < nu) & (nu < 1.0))):
        warnings.append(f"{_named('nu', config.nu, bad)} is outside (-1, 1); "
                        "the error EMA does not contract")
    return warnings


@dataclass
class NuPIState:
    """theta and the error EMA xi, None until the first step sets xi_0 by the
    policy and applies theta_1 = theta_0 + ki e_0 + kp xi_0."""

    theta: np.ndarray
    xi: np.ndarray | None = None

    def advance(self, config: NuPIConfig, e: np.ndarray) -> NuPIState:
        if self.xi is None:
            if config.xi0_policy is Xi0Policy.MATCH_ERROR:
                xi0 = e.copy()
            else:
                xi0 = config.one_minus_nu * e
            self.theta = self.theta + config.ki * e + config.kp * xi0
            self.xi = xi0
            return self
        xi = self.xi  # xi_{t-1}
        self.theta = self.theta + config.ki * e + config.kp_one_minus_nu * (e - xi)
        self.xi = config.nu * xi + config.one_minus_nu * e
        return self


@dataclass(frozen=True)
class UMConfig:
    """Unified momentum: gamma = 0 is Polyak heavy-ball, gamma = 1 is
    Nesterov (constant momentum coefficient)."""

    GAINS: ClassVar[tuple] = ("alpha", "beta", "gamma")

    alpha: float
    beta: float
    gamma: float = 0.0
    beta_gamma: float = _product()  # beta * gamma

    def __post_init__(self):
        _check_gains(self)
        object.__setattr__(self, "beta_gamma", self.beta * self.gamma)


def um_config_warnings(config: UMConfig) -> list:
    beta, gamma = as_floats(config.beta, "beta"), as_floats(config.gamma, "gamma")
    with np.errstate(divide="ignore"):  # beta = 1 has no interval to test
        bound = 1.0 / (1.0 - beta)
    if not np.any(bad := (beta < 1.0) & ~((0.0 <= gamma) & (gamma <= bound))):
        return []
    interval = "[0, 1/(1-beta)]" + (f" = [0, {bound:g}]" if np.ndim(bad) == 0 else "")
    return [f"{_named('gamma', config.gamma, bad)} is outside {interval}"]


@dataclass
class UMState:
    """phi_{t+1} = beta phi_t + alpha e_t;
    theta_{t+1} = theta_t + phi_{t+1} + beta gamma (phi_{t+1} - phi_t)."""

    theta: np.ndarray
    phi: np.ndarray | None = None  # momentum buffer, zero at construction

    def __post_init__(self):
        if self.phi is None:
            self.phi = np.zeros_like(self.theta)

    def advance(self, config: UMConfig, e: np.ndarray) -> UMState:
        phi = config.beta * self.phi + config.alpha * e
        self.theta = self.theta + phi + config.beta_gamma * (phi - self.phi)
        self.phi = phi
        return self


def map_um_to_nupi(config: UMConfig) -> NuPIConfig:
    """Gains for which nuPI reproduces unified momentum exactly:

        nu = beta,  ki = alpha / (1 - beta),
        kp = -alpha beta / (1 - beta)^2 * [1 - gamma (1 - beta)],
        xi_0 = (1 - beta) e_0.

    The UM parameters may be arrays of per-column values (see `NuPIState`);
    each entry maps bit for bit as the scalar would.
    """
    if np.any(config.beta == 1.0):
        raise ConfigurationError("beta = 1 has no nuPI equivalent")
    one_minus_beta = 1 - config.beta
    with np.errstate(over="ignore", invalid="ignore"):
        kp = (-config.alpha * config.beta / (one_minus_beta * one_minus_beta)
              * (1 - config.gamma * one_minus_beta))
        ki = config.alpha / one_minus_beta
    # read through float copies: np.isfinite refuses a Fraction
    if not (np.isfinite(as_floats(kp, "kp")).all() and np.isfinite(as_floats(ki, "ki")).all()):
        raise ConfigurationError("UMConfig alpha, beta and gamma map to a non-finite nuPI "
                                 "kp or ki")
    return NuPIConfig(nu=config.beta, kp=kp, ki=ki, xi0_policy=Xi0Policy.MATCH_UM)


@dataclass(frozen=True)
class GAConfig:
    GAINS: ClassVar[tuple] = ("step_size",)

    step_size: float

    def __post_init__(self):
        _check_gains(self)


@dataclass
class GAState:
    """Plain gradient ascent: theta_{t+1} = theta_t + step_size * e_t."""

    theta: np.ndarray

    def advance(self, config: GAConfig, e: np.ndarray) -> GAState:
        self.theta = self.theta + config.step_size * e
        return self


def apply_dual_restarts(theta: np.ndarray, num_ineq: int, ineq_violation) -> np.ndarray:
    """Reset lam_i = theta[i], i < num_ineq, to zero wherever g_i(x) < 0 (strictly
    satisfied), like `core.project_theta` on stacked theta; theta[num_ineq:] is kept.
    A stack of multipliers (K, n) takes a stack of violations (K, num_ineq)."""
    g = as_vector(ineq_violation, num_ineq, "violation vector", theta.shape[:-1])
    if num_ineq == theta.shape[-1]:  # inequalities only: no block to keep
        return np.where(g < 0.0, 0.0, theta)
    return np.concatenate([np.where(g < 0.0, 0.0, theta[..., :num_ineq]),
                           theta[..., num_ineq:]], axis=-1)


# Adam's moment decay rates and the denominator guard.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class AdamConfig:
    GAINS: ClassVar[tuple] = ("step_size",)

    step_size: float

    def __post_init__(self):
        _check_gains(self)


@dataclass
class AdamState:
    """Bias-corrected adaptive-moment ascent using e_t as the ascent
    direction; the moments m and v are zero at construction."""

    theta: np.ndarray
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    step_count: int = 0

    def __post_init__(self):
        if self.m is None:
            self.m, self.v = np.zeros_like(self.theta), np.zeros_like(self.theta)

    def advance(self, config: AdamConfig, e: np.ndarray) -> AdamState:
        self.step_count += 1
        self.m = ADAM_BETA1 * self.m + (1.0 - ADAM_BETA1) * e
        self.v = ADAM_BETA2 * self.v + (1.0 - ADAM_BETA2) * e * e
        m_hat = self.m / (1.0 - ADAM_BETA1**self.step_count)
        v_hat = self.v / (1.0 - ADAM_BETA2**self.step_count)
        self.theta = self.theta + config.step_size * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        return self


# Dispatch used by the optimization loop and the CLI: one rule per config
# type, (its state class, whose `advance` is the update, soft warnings).

DualOptimizerConfig = NuPIConfig | UMConfig | GAConfig | AdamConfig

_RULES = {
    NuPIConfig: (NuPIState, nupi_config_warnings),
    UMConfig: (UMState, um_config_warnings),
    GAConfig: (GAState, lambda _config: []),
    AdamConfig: (AdamState, lambda _config: []),
}


def _rule(config: DualOptimizerConfig) -> tuple:
    try:
        return _RULES[type(config)]
    except KeyError:
        raise ConfigurationError(
            f"unknown dual optimizer config: {type(config).__name__}") from None


def gain_arrays(config: DualOptimizerConfig, shape: tuple) -> DualOptimizerConfig:
    """`config` with every gain a new float64 array of `shape`, theta's:
    a scalar gain is repeated, a per-row gain of shape (K, 1) spread along
    its row. The products of gains follow in `__post_init__`."""
    try:
        return replace(config, **{name: np.array(np.broadcast_to(getattr(config, name), shape),
                                                 dtype=np.float64)
                                  for name in config.GAINS})
    except ValueError as exc:
        raise ConfigurationError(f"{type(config).__name__} gains must be scalars or arrays "
                                 f"that broadcast to the multipliers' shape {shape}") from exc


def make_dual_state(config: DualOptimizerConfig, theta0):
    """The rule's state at theta0 (a float64 copy, at least 1-D), before any step."""
    return _rule(config)[0](np.array(as_floats(theta0, "theta0"), ndmin=1))


def dual_step(state, config: DualOptimizerConfig, error):
    """Advance `state` in place by one update and return it. The error is not
    checked: the driver has checked that c(x_t) is finite and well shaped."""
    return _rule(config)[0].advance(state, config, np.asarray(error, dtype=np.float64))


def checked_dual_step(state, config: DualOptimizerConfig, error):
    """One update on a copy of `state`, which is left as it was. A state of
    another rule or an error whose shape is not theta's is a
    ConfigurationError, a non-finite error a NumericalError naming its (flat)
    indices."""
    state_class = _rule(config)[0]
    if type(state) is not state_class:
        raise ConfigurationError(f"a {type(state).__name__} cannot be stepped with a "
                                 f"{type(config).__name__}, which needs a {state_class.__name__}")
    return state_class.advance(copy.copy(state), config, _checked_error(error, state.theta))


def dual_config_warnings(config: DualOptimizerConfig) -> list:
    """Soft-validation messages for a dual optimizer config ([] if none)."""
    return _rule(config)[1](config)


def replace_theta(state, theta: np.ndarray):
    """Set the state's theta in place; xi, phi and the moments are untouched."""
    state.theta = theta
    return state
