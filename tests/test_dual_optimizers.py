"""Tests for the multiplier update rules and their equivalences."""

import numpy as np
import pytest

from numax import (
    AdamConfig,
    ConfigurationError,
    DualVector,
    GAConfig,
    NuPIConfig,
    NumericalError,
    UMConfig,
    Xi0Policy,
    adam_dual_step,
    apply_dual_restarts,
    dual_step,
    ga_step,
    init_adam,
    init_ga,
    init_nupi,
    init_um,
    make_dual_state,
    map_um_to_nupi,
    nupi_step,
    project_duals,
    um_step,
)
from numax.dual_optimizers import (
    ADAM_EPS,
    dual_config_warnings,
    nupi_config_warnings,
    replace_theta,
    um_config_warnings,
)


def run_nupi(config, errors, theta0=0.0):
    state = init_nupi([theta0])
    out = []
    for e in errors:
        state = nupi_step(state, config, [e])
        out.append(state.theta[0])
    return np.array(out)


def run_um(config, errors, theta0=0.0):
    state = init_um([theta0])
    out = []
    for e in errors:
        state = um_step(state, config, [e])
        out.append(state.theta[0])
    return np.array(out)


class TestNuPIStep:
    def test_pure_integral_is_gradient_ascent(self):
        config = NuPIConfig(nu=0.0, kp=0.0, ki=0.1)
        assert run_nupi(config, [1.0])[0] == pytest.approx(0.1)

    def test_optimistic_gradient_hand_expansion(self):
        # kp = ki = 1 with xi0 = e0: theta1 = 0 + 1 + 1 = 2, theta2 = 2 + 2 + (2 - 1) = 5
        config = NuPIConfig(nu=0.0, kp=1.0, ki=1.0)
        thetas = run_nupi(config, [1.0, 2.0])
        np.testing.assert_allclose(thetas, [2.0, 5.0])

    def test_constant_error_increment_is_integral_term(self):
        config = NuPIConfig(nu=0.0, kp=2.0, ki=0.3)
        thetas = run_nupi(config, [0.7] * 10)
        increments = np.diff(thetas)
        np.testing.assert_allclose(increments, 0.3 * 0.7, rtol=0, atol=1e-15)

    def test_steady_state_proportional_decay_rate_nu(self):
        nu, kp, ki, e = 0.6, 2.0, 0.1, 1.0
        config = NuPIConfig(nu=nu, kp=kp, ki=ki, xi0_policy=Xi0Policy.MATCH_UM)
        thetas = run_nupi(config, [e] * 15)
        extra = np.diff(thetas) - ki * e  # proportional contribution
        ratios = extra[2:10] / extra[1:9]
        np.testing.assert_allclose(ratios, nu, rtol=1e-6)

    def test_xi_retained_at_first_step(self):
        state = init_nupi([0.0])
        state = nupi_step(state, NuPIConfig(nu=0.5, kp=1.0, ki=1.0), [3.0])
        assert state.step_count == 1 and state.prev_initialized
        np.testing.assert_array_equal(state.xi, [3.0])

    def test_xi0_policies(self):
        cfg_um = NuPIConfig(nu=0.5, kp=1.0, ki=1.0, xi0_policy=Xi0Policy.MATCH_UM)
        assert run_nupi(cfg_um, [2.0])[0] == 2.0 + 1.0  # ki e0 + kp (1-nu) e0

    def test_length_mismatch_fatal(self):
        state = init_nupi([0.0, 0.0])
        with pytest.raises(ConfigurationError):
            nupi_step(state, NuPIConfig(nu=0.0, kp=0.0, ki=0.1), [1.0])

    def test_non_finite_error_rejected(self):
        state = init_nupi([0.0])
        with pytest.raises(NumericalError, match="indices"):
            nupi_step(state, NuPIConfig(nu=0.0, kp=0.0, ki=0.1), [np.nan])
        # state untouched (pure function, nothing to roll back)
        assert state.step_count == 0

    def test_config_warnings(self):
        assert nupi_config_warnings(NuPIConfig(nu=0.0, kp=1.0, ki=0.1)) == []
        assert nupi_config_warnings(NuPIConfig(nu=0.0, kp=1.0, ki=-0.1))
        assert nupi_config_warnings(NuPIConfig(nu=1.5, kp=1.0, ki=0.1))


class TestGAStep:
    def test_plain_step(self):
        state = ga_step(init_ga([0.0]), 0.01, [2.0])
        assert state.theta[0] == pytest.approx(0.02)

    def test_bit_exact_nupi_embedding(self):
        rng = np.random.default_rng(0)
        for trial in range(3):
            alpha = float(rng.uniform(0.01, 1.0))
            errors = rng.uniform(-10, 10, size=500)
            ga = init_ga([0.0])
            pi = init_nupi([0.0])
            config = NuPIConfig(nu=0.0, kp=0.0, ki=alpha)
            for e in errors:
                ga = ga_step(ga, alpha, [e])
                pi = nupi_step(pi, config, [e])
                assert np.array_equal(ga.theta, pi.theta)

    def test_arithmetic_series(self):
        state = init_ga([0.0])
        for _ in range(100):
            state = ga_step(state, 0.1, [1.0])
        assert state.theta[0] == pytest.approx(10.0, abs=1e-12)


class TestUMStep:
    def test_beta_zero_is_gradient_ascent(self):
        for gamma in (0.0, 0.7, 1.0):
            config = UMConfig(alpha=0.3, beta=0.0, gamma=gamma)
            thetas = run_um(config, [1.0, -2.0, 0.5])
            np.testing.assert_allclose(thetas, 0.3 * np.cumsum([1.0, -2.0, 0.5]))

    def test_polyak_single_parameter_recurrence(self):
        # gamma = 0: theta_{t+1} = theta_t + alpha e_t + beta (theta_t - theta_{t-1})
        alpha, beta = 0.3, 0.6
        rng = np.random.default_rng(1)
        errors = rng.uniform(-5, 5, size=200)
        thetas = run_um(UMConfig(alpha=alpha, beta=beta, gamma=0.0), errors)
        oracle = [0.0, alpha * errors[0]]  # theta0, theta1
        for t in range(1, len(errors)):
            oracle.append(oracle[-1] + alpha * errors[t] + beta * (oracle[-1] - oracle[-2]))
        np.testing.assert_allclose(thetas, oracle[1:], atol=1e-12)

    def test_nesterov_first_step(self):
        config = UMConfig(alpha=0.5, beta=0.5, gamma=1.0)
        assert run_um(config, [1.0])[0] == pytest.approx(0.75)

    def test_gamma_warning_outside_interval(self):
        assert um_config_warnings(UMConfig(alpha=0.5, beta=0.5, gamma=1.0)) == []
        assert um_config_warnings(UMConfig(alpha=0.5, beta=-0.5, gamma=1.0))


class TestMomentumMapping:
    def test_polyak_example(self):
        mapped = map_um_to_nupi(UMConfig(alpha=0.5, beta=0.5, gamma=0.0))
        assert mapped.nu == pytest.approx(0.5)
        assert mapped.ki == pytest.approx(1.0)
        assert mapped.kp == pytest.approx(-1.0)
        assert mapped.xi0_policy is Xi0Policy.MATCH_UM
        assert mapped.nu == 0.5  # so MATCH_UM's (1 - nu) e_0 is exactly (1 - beta) e_0

    def test_momentum_free_limit(self):
        for gamma in (0.0, 0.5, 1.0):
            mapped = map_um_to_nupi(UMConfig(alpha=0.7, beta=0.0, gamma=gamma))
            assert (mapped.nu, mapped.kp) == (0.0, 0.0)
            assert mapped.ki == pytest.approx(0.7)

    def test_nesterov_kp_nonpositive(self):
        for beta in (-0.9, -0.5, 0.3, 0.9):
            mapped = map_um_to_nupi(UMConfig(alpha=1.0, beta=beta, gamma=1.0))
            expected = -beta**2 / (1.0 - beta) ** 2
            assert mapped.kp == pytest.approx(expected)
            assert mapped.kp <= 0.0

    def test_beta_one_rejected(self):
        with pytest.raises(ConfigurationError):
            map_um_to_nupi(UMConfig(alpha=0.5, beta=1.0, gamma=0.0))

    def test_iterate_equivalence_random_tuples(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            alpha = float(rng.uniform(1e-3, 2.0))
            beta = float(rng.uniform(-0.9, 0.9))
            gamma = float(rng.choice([0.0, 1.0]))
            errors = rng.uniform(-10, 10, size=1000)
            um_cfg = UMConfig(alpha=alpha, beta=beta, gamma=gamma)
            pi_cfg = map_um_to_nupi(um_cfg)
            um_state, pi_state = init_um([0.0]), init_nupi([0.0])
            worst = 0.0
            for e in errors:
                um_state = um_step(um_state, um_cfg, [e])
                pi_state = nupi_step(pi_state, pi_cfg, [e])
                worst = max(worst, abs(um_state.theta[0] - pi_state.theta[0]))
            assert worst <= 1e-9, (alpha, beta, gamma, worst)


class TestCumulativeForm:
    def test_recursive_matches_cumulative(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            nu = float(rng.uniform(-0.9, 0.9))
            kp = float(rng.uniform(-5.0, 5.0))
            ki = float(rng.uniform(0.01, 2.0))
            errors = rng.uniform(-10, 10, size=1000)
            config = NuPIConfig(nu=nu, kp=kp, ki=ki)
            recursive = run_nupi(config, errors)
            # direct cumulative formula: theta_{t+1} = theta0 + kp xi_t + ki sum(e_0..e_t)
            xi = errors[0]
            running = 0.0
            cumulative = []
            for t, e in enumerate(errors):
                if t >= 1:
                    xi = nu * xi + (1.0 - nu) * e
                running += e
                cumulative.append(kp * xi + ki * running)
            np.testing.assert_allclose(recursive, cumulative, rtol=0, atol=1e-9)


class TestDualRestarts:
    def test_strictly_satisfied_resets(self):
        duals = DualVector([5.0, 5.0, 5.0], [])
        out = apply_dual_restarts(duals, [-0.1, 0.0, 0.2])
        np.testing.assert_array_equal(out.lam, [0.0, 5.0, 5.0])

    def test_all_violated_unchanged(self):
        duals = DualVector([1.0, 2.0], [3.0])
        out = apply_dual_restarts(duals, [0.5, 0.1])
        np.testing.assert_array_equal(out.lam, duals.lam)
        np.testing.assert_array_equal(out.mu, duals.mu)

    def test_tiny_negative_triggers(self):
        out = apply_dual_restarts(DualVector([7.0], []), [-1e-300])
        assert out.lam[0] == 0.0

    def test_commutes_with_projection(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            duals = DualVector(rng.standard_normal(8), rng.standard_normal(2))
            g = rng.standard_normal(8)
            a = project_duals(apply_dual_restarts(duals, g))
            b = apply_dual_restarts(project_duals(duals), g)
            assert np.array_equal(a.lam, b.lam)
            assert np.array_equal(a.mu, b.mu)

    def test_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            apply_dual_restarts(DualVector([1.0], []), [0.1, 0.2])


class TestAdamDualStep:
    def test_first_step_is_nearly_sign_step(self):
        config = AdamConfig(step_size=0.25)
        state = adam_dual_step(init_adam([0.0]), config, [1.0])
        assert state.theta[0] == pytest.approx(0.25, rel=1e-7)

    def test_zero_error_never_moves(self):
        config = AdamConfig(step_size=0.5)
        state = init_adam([1.5])
        for _ in range(20):
            state = adam_dual_step(state, config, [0.0])
        assert state.theta[0] == 1.5

    def test_constant_error_steady_increment(self):
        # with constant error c the bias-corrected moments are exactly c and
        # c^2, so every increment is step * c / (|c| + eps)
        c, eta = 0.8, 0.05
        config = AdamConfig(step_size=eta)
        state = init_adam([0.0])
        prev = 0.0
        for _ in range(50):
            state = adam_dual_step(state, config, [c])
            inc = state.theta[0] - prev
            prev = state.theta[0]
            assert inc == pytest.approx(eta * c / (c + ADAM_EPS), rel=1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(NumericalError):
            adam_dual_step(init_adam([0.0]), AdamConfig(step_size=0.1), [np.inf])


class TestDispatchTable:
    CONFIGS = [NuPIConfig(nu=0.5, kp=1.0, ki=0.1), UMConfig(alpha=0.1, beta=0.5, gamma=1.0),
               GAConfig(step_size=0.1), AdamConfig(step_size=0.1)]

    def test_unknown_config_rejected(self):
        class Unknown:
            pass

        with pytest.raises(ConfigurationError, match="Unknown"):
            make_dual_state(Unknown(), [0.0])
        with pytest.raises(ConfigurationError, match="Unknown"):
            dual_step(init_ga([0.0]), Unknown(), [1.0])
        with pytest.raises(ConfigurationError, match="Unknown"):
            dual_config_warnings(Unknown())

    def test_warnings(self):
        bad_nupi = NuPIConfig(nu=1.5, kp=1.0, ki=-0.1)
        bad_um = UMConfig(alpha=0.5, beta=-0.5, gamma=1.0)
        assert len(dual_config_warnings(bad_nupi)) == 2
        assert dual_config_warnings(bad_nupi) == nupi_config_warnings(bad_nupi)
        assert dual_config_warnings(bad_um) == um_config_warnings(bad_um) != []
        assert dual_config_warnings(GAConfig(step_size=-1.0)) == []
        assert dual_config_warnings(AdamConfig(step_size=-1.0)) == []

    def test_replace_theta_keeps_controller_state(self):
        for config in self.CONFIGS:
            state = dual_step(make_dual_state(config, [0.5, 0.5]), config, [1.0, -1.0])
            before = dict(vars(state))
            swapped = replace_theta(state, np.array([0.0, 0.0]))
            assert swapped is state
            assert swapped.theta.tolist() == [0.0, 0.0]
            for name, value in before.items():
                if name != "theta":
                    assert vars(swapped)[name] is value

    def test_pure_steps_copy_and_dual_step_updates_in_place(self):
        pure = {NuPIConfig: nupi_step, UMConfig: um_step, AdamConfig: adam_dual_step,
                GAConfig: lambda state, config, e: ga_step(state, config.step_size, e)}
        for config in self.CONFIGS:
            state = make_dual_state(config, [0.5, 0.5])
            for error in ([1.0, -1.0], [0.25, 2.0]):  # nuPI's first step differs
                before = {k: np.copy(v) for k, v in vars(state).items()}
                stepped = pure[type(config)](state, config, error)
                assert stepped is not state
                for name, value in before.items():
                    assert np.array_equal(vars(state)[name], value), (config, name)
                assert dual_step(state, config, error) is state
                for name, value in vars(stepped).items():
                    assert np.array_equal(vars(state)[name], value), (config, name)
