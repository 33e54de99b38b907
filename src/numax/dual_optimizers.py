"""Update rules for Lagrange multipliers.

Every rule acts componentwise on the stacked multiplier vector theta =
[lam, mu], driven by the error e_t = c(x_t). Each rule is written once, as
the `advance(config, e)` method that updates its mutable state in place
from a checked error; the public `*_step` functions check the error and
advance a copy (pure), `dual_step` advances the caller's state. No step
projects: the driver writes the projected theta back into the state
(`replace_theta`) and the recursion continues from it.

The nuPI controller follows the recursion

    theta_1     = theta_0 + ki * e_0 + kp * xi_0
    xi_t        = nu * xi_{t-1} + (1 - nu) * e_t
    theta_{t+1} = theta_t + ki * e_t + kp * (1 - nu) * (e_t - xi_{t-1})   (t >= 1)

which is equivalent to accumulating ki * sum(e) plus kp times an exponential
moving average of the errors. nu = 0 gives a classical PI controller;
kp = 0 gives plain gradient ascent with step ki. The start xi_0 is e_0
(`Xi0Policy.MATCH_ERROR`, the default) or (1 - nu) * e_0 (`MATCH_UM`, which
`map_um_to_nupi` sets so that nuPI reproduces unified momentum).
"""

from __future__ import annotations

import copy
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
    MATCH_UM = "match-um"        # xi_0 = (1 - nu) * e_0; set by the momentum mapper


@dataclass(frozen=True)
class NuPIConfig:
    nu: float
    kp: float
    ki: float
    xi0_policy: Xi0Policy = Xi0Policy.MATCH_ERROR


def nupi_config_warnings(config: NuPIConfig) -> list:
    """Soft validation; out-of-range values are permitted but flagged."""
    warnings = []
    if config.ki <= 0:
        warnings.append(f"ki = {config.ki} is not positive; the integral term will not ascend")
    if not -1.0 < config.nu < 1.0:
        warnings.append(f"nu = {config.nu} is outside (-1, 1); the error EMA does not contract")
    return warnings


@dataclass
class NuPIState:
    """theta after `step_count` updates; xi is the error EMA (None before the
    first step, where the xi0 policy sets it from e_0)."""

    theta: np.ndarray
    xi: np.ndarray | None
    prev_initialized: bool
    step_count: int

    def advance(self, config: NuPIConfig, e: np.ndarray) -> NuPIState:
        if not self.prev_initialized:
            if config.xi0_policy is Xi0Policy.MATCH_ERROR:
                xi0 = e.copy()
            else:
                xi0 = (1.0 - config.nu) * e
            self.theta = self.theta + config.ki * e + config.kp * xi0
            self.xi, self.prev_initialized, self.step_count = xi0, True, 1
            return self
        xi = self.xi  # xi_{t-1}
        self.theta = self.theta + config.ki * e + config.kp * (1.0 - config.nu) * (e - xi)
        self.xi = config.nu * xi + (1.0 - config.nu) * e
        self.step_count += 1
        return self


def init_nupi(theta0) -> NuPIState:
    theta = np.atleast_1d(np.asarray(theta0, dtype=np.float64)).copy()
    return NuPIState(theta=theta, xi=None, prev_initialized=False, step_count=0)


def nupi_step(state: NuPIState, config: NuPIConfig, error) -> NuPIState:
    """One nuPI update. At t = 0 sets xi_0 by the policy and applies
    theta_1 = theta_0 + ki e_0 + kp xi_0 (xi retains xi_0)."""
    return copy.copy(state).advance(config, _checked_error(error, state.theta.size))


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


@dataclass
class UMState:
    theta: np.ndarray
    phi: np.ndarray  # momentum buffer, zero at construction

    def advance(self, config: UMConfig, e: np.ndarray) -> UMState:
        phi = config.beta * self.phi + config.alpha * e
        self.theta = self.theta + phi + config.beta * config.gamma * (phi - self.phi)
        self.phi = phi
        return self


def init_um(theta0) -> UMState:
    theta = np.atleast_1d(np.asarray(theta0, dtype=np.float64)).copy()
    return UMState(theta=theta, phi=np.zeros_like(theta))


def um_step(state: UMState, config: UMConfig, error) -> UMState:
    """phi_{t+1} = beta phi_t + alpha e_t;
    theta_{t+1} = theta_t + phi_{t+1} + beta gamma (phi_{t+1} - phi_t)."""
    return copy.copy(state).advance(config, _checked_error(error, state.theta.size))


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
    )


@dataclass(frozen=True)
class GAConfig:
    step_size: float


@dataclass
class GAState:
    theta: np.ndarray

    def advance(self, config: GAConfig, e: np.ndarray) -> GAState:
        self.theta = self.theta + config.step_size * e
        return self


def init_ga(theta0) -> GAState:
    return GAState(theta=np.atleast_1d(np.asarray(theta0, dtype=np.float64)).copy())


def ga_step(state: GAState, step_size: float, error) -> GAState:
    """Plain gradient ascent: theta_{t+1} = theta_t + step_size * e_t."""
    return copy.copy(state).advance(GAConfig(step_size), _checked_error(error, state.theta.size))


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


# Adam's moment decay rates and the denominator guard, on both sides.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class AdamConfig:
    step_size: float


@dataclass
class AdamState:
    theta: np.ndarray
    m: np.ndarray
    v: np.ndarray
    step_count: int

    def advance(self, config: AdamConfig, e: np.ndarray) -> AdamState:
        self.step_count += 1
        self.m, self.v, increment = adam_moments(self.m, self.v, self.step_count,
                                                 config.step_size, e)
        self.theta = self.theta + increment
        return self


def init_adam(theta0) -> AdamState:
    theta = np.atleast_1d(np.asarray(theta0, dtype=np.float64)).copy()
    return AdamState(theta=theta, m=np.zeros_like(theta), v=np.zeros_like(theta),
                     step_count=0)


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


def adam_dual_step(state: AdamState, config: AdamConfig, error) -> AdamState:
    """Bias-corrected adaptive-moment ascent using e_t as the ascent
    direction."""
    return copy.copy(state).advance(config, _checked_error(error, state.theta.size))


# Dispatch used by the optimization loop and the CLI: one rule per config
# type, (init, the state's in-place `advance`, soft warnings).

DualOptimizerConfig = NuPIConfig | UMConfig | GAConfig | AdamConfig

_RULES = {
    NuPIConfig: (init_nupi, NuPIState.advance, nupi_config_warnings),
    UMConfig: (init_um, UMState.advance, um_config_warnings),
    GAConfig: (init_ga, GAState.advance, lambda _config: []),
    AdamConfig: (init_adam, AdamState.advance, lambda _config: []),
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
    """Advance `state` in place by one update and return it. The error is not
    checked: the driver has checked that c(x_t) is finite and well shaped."""
    return _rule(config)[1](state, config, np.asarray(error, dtype=np.float64))


def dual_config_warnings(config: DualOptimizerConfig) -> list:
    """Soft-validation messages for a dual optimizer config ([] if none)."""
    return _rule(config)[2](config)


def replace_theta(state, theta: np.ndarray):
    """Set the state's theta in place; xi, phi and the moments are untouched."""
    state.theta = theta
    return state
