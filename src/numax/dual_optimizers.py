"""Update rules for Lagrange multipliers.

All steps are pure functions state x error -> state operating componentwise
on the stacked multiplier vector theta = [lam, mu]; there is no coupling
across constraints. The error signal e_t is the vector of constraint
violations c(x_t). None of the steps apply the nonnegativity projection:
the driver projects the stored theta afterwards and the recursion continues
from the projected value.

The nuPI controller follows the recursion

    theta_1     = theta_0 + ki * e_0 + kp * xi_0
    xi_t        = nu * xi_{t-1} + (1 - nu) * e_t
    theta_{t+1} = theta_t + ki * e_t + kp * (1 - nu) * (e_t - xi_{t-1})   (t >= 1)

which is equivalent to accumulating ki * sum(e) plus kp times an exponential
moving average of the errors. nu = 0 gives a classical PI controller;
kp = 0 gives plain gradient ascent with step ki.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import ConfigurationError, DualVector, NumericalError


def _checked_error(error, expected_len: int) -> np.ndarray:
    e = np.atleast_1d(np.asarray(error, dtype=np.float64))
    if e.shape != (expected_len,):
        raise ConfigurationError(
            f"error signal has length {e.size}, optimizer state has {expected_len}"
        )
    if not np.all(np.isfinite(e)):
        bad = np.flatnonzero(~np.isfinite(e))
        raise NumericalError(
            f"step rejected: non-finite error entries at indices {bad.tolist()}"
        )
    return e


class Xi0Policy(Enum):
    """How the EMA state xi_0 is initialized on the first step."""

    MATCH_ERROR = "match-error"  # xi_0 = e_0; first step equals gradient ascent
    MATCH_UM = "match-um"        # xi_0 = (1 - beta) * e_0; used by the momentum mapper
    ZERO = "zero"
    EXPLICIT = "explicit"


@dataclass(frozen=True)
class NuPIConfig:
    nu: float
    kp: float
    ki: float
    xi0_policy: Xi0Policy = Xi0Policy.MATCH_ERROR
    xi0_beta: float | None = None       # required for MATCH_UM
    xi0_value: np.ndarray | None = None  # required for EXPLICIT


def nupi_config_warnings(config: NuPIConfig) -> list:
    """Soft validation; out-of-range values are permitted but flagged."""
    warnings = []
    if config.ki <= 0:
        warnings.append(f"ki = {config.ki} is not positive; the integral term will not ascend")
    if not -1.0 < config.nu < 1.0:
        warnings.append(f"nu = {config.nu} is outside (-1, 1); the error EMA does not contract")
    return warnings


@dataclass(frozen=True)
class NuPIState:
    """theta after `step_count` updates; xi is the error EMA (None before the
    first step, where the xi0 policy resolves it from e_0)."""

    theta: np.ndarray
    xi: np.ndarray | None
    prev_initialized: bool
    step_count: int


def init_nupi(theta0) -> NuPIState:
    theta = np.atleast_1d(np.asarray(theta0, dtype=np.float64)).copy()
    return NuPIState(theta=theta, xi=None, prev_initialized=False, step_count=0)


def _resolve_xi0(config: NuPIConfig, e0: np.ndarray) -> np.ndarray:
    if config.xi0_policy is Xi0Policy.MATCH_ERROR:
        return e0.copy()
    if config.xi0_policy is Xi0Policy.MATCH_UM:
        if config.xi0_beta is None:
            raise ConfigurationError("xi0_policy MATCH_UM requires xi0_beta")
        return (1.0 - config.xi0_beta) * e0
    if config.xi0_policy is Xi0Policy.ZERO:
        return np.zeros_like(e0)
    if config.xi0_value is None:
        raise ConfigurationError("xi0_policy EXPLICIT requires xi0_value")
    return _checked_error(config.xi0_value, e0.size).copy()


def nupi_step(state: NuPIState, config: NuPIConfig, error) -> NuPIState:
    """One nuPI update. At t = 0 resolves xi_0 and applies
    theta_1 = theta_0 + ki e_0 + kp xi_0 (xi retains xi_0)."""
    e = _checked_error(error, state.theta.size)
    if not state.prev_initialized:
        xi0 = _resolve_xi0(config, e)
        theta = state.theta + config.ki * e + config.kp * xi0
        return NuPIState(theta=theta, xi=xi0, prev_initialized=True, step_count=1)
    xi_prev = state.xi
    theta = state.theta + config.ki * e + config.kp * (1.0 - config.nu) * (e - xi_prev)
    xi = config.nu * xi_prev + (1.0 - config.nu) * e
    return NuPIState(theta=theta, xi=xi, prev_initialized=True,
                     step_count=state.step_count + 1)


@dataclass(frozen=True)
class UMConfig:
    """Unified momentum: gamma = 0 is Polyak heavy-ball, gamma = 1 is
    Nesterov (constant momentum coefficient)."""

    alpha: float
    beta: float
    gamma: float = 0.0


def um_config_warnings(config: UMConfig) -> list:
    warnings = []
    if config.beta < 1.0 and not 0.0 <= config.gamma <= 1.0 / (1.0 - config.beta):
        warnings.append(
            f"gamma = {config.gamma} is outside [0, 1/(1-beta)] = [0, {1.0 / (1.0 - config.beta):g}]"
        )
    return warnings


@dataclass(frozen=True)
class UMState:
    theta: np.ndarray
    phi: np.ndarray  # momentum buffer, zero at construction


def init_um(theta0) -> UMState:
    theta = np.atleast_1d(np.asarray(theta0, dtype=np.float64)).copy()
    return UMState(theta=theta, phi=np.zeros_like(theta))


def um_step(state: UMState, config: UMConfig, error) -> UMState:
    """phi_{t+1} = beta phi_t + alpha e_t;
    theta_{t+1} = theta_t + phi_{t+1} + beta gamma (phi_{t+1} - phi_t)."""
    e = _checked_error(error, state.theta.size)
    phi = config.beta * state.phi + config.alpha * e
    theta = state.theta + phi + config.beta * config.gamma * (phi - state.phi)
    return UMState(theta=theta, phi=phi)


def map_um_to_nupi(config: UMConfig) -> NuPIConfig:
    """Gains for which nuPI reproduces unified momentum exactly:

        nu = beta,  ki = alpha / (1 - beta),
        kp = -alpha beta / (1 - beta)^2 * [1 - gamma (1 - beta)],
        xi_0 = (1 - beta) e_0.
    """
    if config.beta == 1.0:
        raise ConfigurationError("beta = 1 has no nuPI equivalent")
    one_minus_beta = 1.0 - config.beta
    kp = (-config.alpha * config.beta / one_minus_beta**2
          * (1.0 - config.gamma * one_minus_beta))
    return NuPIConfig(
        nu=config.beta,
        kp=kp,
        ki=config.alpha / one_minus_beta,
        xi0_policy=Xi0Policy.MATCH_UM,
        xi0_beta=config.beta,
    )


@dataclass(frozen=True)
class GAConfig:
    step_size: float


@dataclass(frozen=True)
class GAState:
    theta: np.ndarray


def init_ga(theta0) -> GAState:
    return GAState(theta=np.atleast_1d(np.asarray(theta0, dtype=np.float64)).copy())


def ga_step(state: GAState, step_size: float, error) -> GAState:
    """Plain gradient ascent: theta_{t+1} = theta_t + step_size * e_t."""
    e = _checked_error(error, state.theta.size)
    return GAState(theta=state.theta + step_size * e)


def apply_dual_restarts(duals: DualVector, ineq_violation) -> DualVector:
    """Reset lam_i to zero wherever g_i(x) is strictly negative (constraint
    strictly satisfied). Equality multipliers are never modified."""
    g = np.atleast_1d(np.asarray(ineq_violation, dtype=np.float64))
    if g.shape != duals.lam.shape:
        raise ConfigurationError(
            f"violation vector has length {g.size}, expected {duals.lam.size}"
        )
    lam = np.where(g < 0.0, 0.0, duals.lam)
    return DualVector(lam, duals.mu)


@dataclass(frozen=True)
class AdamConfig:
    step_size: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


@dataclass(frozen=True)
class AdamState:
    theta: np.ndarray
    m: np.ndarray
    v: np.ndarray
    step_count: int


def init_adam(theta0) -> AdamState:
    theta = np.atleast_1d(np.asarray(theta0, dtype=np.float64)).copy()
    return AdamState(theta=theta, m=np.zeros_like(theta), v=np.zeros_like(theta),
                     step_count=0)


def adam_dual_step(state: AdamState, config: AdamConfig, error) -> AdamState:
    """Bias-corrected adaptive-moment ascent using e_t as the ascent
    direction."""
    e = _checked_error(error, state.theta.size)
    t = state.step_count + 1
    m = config.beta1 * state.m + (1.0 - config.beta1) * e
    v = config.beta2 * state.v + (1.0 - config.beta2) * e * e
    m_hat = m / (1.0 - config.beta1**t)
    v_hat = v / (1.0 - config.beta2**t)
    theta = state.theta + config.step_size * m_hat / (np.sqrt(v_hat) + config.eps)
    return AdamState(theta=theta, m=m, v=v, step_count=t)


# Dispatch used by the optimization loop and the CLI: one rule per config
# type, (init, step, soft warnings).

DualOptimizerConfig = NuPIConfig | UMConfig | GAConfig | AdamConfig

_RULES = {
    NuPIConfig: (init_nupi, nupi_step, nupi_config_warnings),
    UMConfig: (init_um, um_step, um_config_warnings),
    GAConfig: (init_ga, lambda state, config, e: ga_step(state, config.step_size, e),
               lambda _config: []),
    AdamConfig: (init_adam, adam_dual_step, lambda _config: []),
}


def _rule(config: DualOptimizerConfig) -> tuple:
    try:
        return _RULES[type(config)]
    except KeyError:
        raise ConfigurationError(
            f"unknown dual optimizer config: {type(config).__name__}") from None


def make_dual_state(config: DualOptimizerConfig, theta0):
    return _rule(config)[0](theta0)


def dual_step(state, config: DualOptimizerConfig, error):
    return _rule(config)[1](state, config, error)


def dual_config_warnings(config: DualOptimizerConfig) -> list:
    """Soft-validation messages for a dual optimizer config ([] if none)."""
    return _rule(config)[2](config)


def replace_theta(state, theta: np.ndarray):
    """Rebuild an optimizer state with theta swapped (used for projection and
    dual restarts); controller bookkeeping (xi, phi, moments) is untouched."""
    return dataclasses.replace(state, theta=theta)
