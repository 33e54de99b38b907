"""Tests for the multiplier update rules and their equivalences."""

import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from numax import (
    AdamConfig,
    ConfigurationError,
    GAConfig,
    GAState,
    NuPIConfig,
    NuPIState,
    NumericalError,
    UMConfig,
    UMState,
    Xi0Policy,
    apply_dual_restarts,
    checked_dual_step,
    dual_step,
    make_dual_state,
    map_um_to_nupi,
    project_theta,
)
from numax.dual_optimizers import (
    ADAM_EPS,
    dual_config_warnings,
    gain_arrays,
    nupi_config_warnings,
    replace_theta,
    um_config_warnings,
)
from reference import loop_reference


def run_rule(config, errors, theta0=0.0):
    state = make_dual_state(config, [theta0])
    out = []
    for e in errors:
        state = checked_dual_step(state, config, [e])
        out.append(state.theta[0])
    return np.array(out)


class TestNuPIStep:
    def test_pure_integral_is_gradient_ascent(self):
        config = NuPIConfig(nu=0.0, kp=0.0, ki=0.1)
        assert run_rule(config, [1.0])[0] == pytest.approx(0.1)

    def test_optimistic_gradient_hand_expansion(self):
        # kp = ki = 1 with xi0 = e0: theta1 = 0 + 1 + 1 = 2, theta2 = 2 + 2 + (2 - 1) = 5
        config = NuPIConfig(nu=0.0, kp=1.0, ki=1.0)
        thetas = run_rule(config, [1.0, 2.0])
        np.testing.assert_allclose(thetas, [2.0, 5.0])

    def test_constant_error_increment_is_integral_term(self):
        config = NuPIConfig(nu=0.0, kp=2.0, ki=0.3)
        thetas = run_rule(config, [0.7] * 10)
        increments = np.diff(thetas)
        np.testing.assert_allclose(increments, 0.3 * 0.7, rtol=0, atol=1e-15)

    def test_steady_state_proportional_decay_rate_nu(self):
        nu, kp, ki, e = 0.6, 2.0, 0.1, 1.0
        config = NuPIConfig(nu=nu, kp=kp, ki=ki, xi0_policy=Xi0Policy.MATCH_UM)
        thetas = run_rule(config, [e] * 15)
        extra = np.diff(thetas) - ki * e  # proportional contribution
        ratios = extra[2:10] / extra[1:9]
        np.testing.assert_allclose(ratios, nu, rtol=1e-6)

    def test_xi_retained_at_first_step(self):
        config = NuPIConfig(nu=0.5, kp=1.0, ki=1.0)
        state = checked_dual_step(make_dual_state(config, [0.0]), config, [3.0])
        np.testing.assert_array_equal(state.theta, [6.0])  # ki e_0 + kp xi_0
        np.testing.assert_array_equal(state.xi, [3.0])

    def test_xi0_policies(self):
        cfg_um = NuPIConfig(nu=0.5, kp=1.0, ki=1.0, xi0_policy=Xi0Policy.MATCH_UM)
        assert run_rule(cfg_um, [2.0])[0] == 2.0 + 1.0  # ki e0 + kp (1-nu) e0

    def test_length_mismatch_fatal(self):
        config = NuPIConfig(nu=0.0, kp=0.0, ki=0.1)
        with pytest.raises(ConfigurationError):
            checked_dual_step(make_dual_state(config, [0.0, 0.0]), config, [1.0])

    def test_non_finite_error_rejected(self):
        config = NuPIConfig(nu=0.0, kp=0.0, ki=0.1)
        state = make_dual_state(config, [0.0])
        with pytest.raises(NumericalError, match="indices"):
            checked_dual_step(state, config, [np.nan])
        # state untouched (pure function, nothing to roll back)
        np.testing.assert_array_equal(state.theta, [0.0])
        assert state.xi is None

    def test_config_warnings(self):
        assert nupi_config_warnings(NuPIConfig(nu=0.0, kp=1.0, ki=0.1)) == []
        assert nupi_config_warnings(NuPIConfig(nu=0.0, kp=1.0, ki=-0.1))
        assert nupi_config_warnings(NuPIConfig(nu=1.5, kp=1.0, ki=0.1))


class TestGAStep:
    def test_plain_step(self):
        assert run_rule(GAConfig(step_size=0.01), [2.0])[0] == pytest.approx(0.02)

    def test_bit_exact_nupi_embedding(self):
        rng = np.random.default_rng(0)
        for trial in range(3):
            alpha = float(rng.uniform(0.01, 1.0))
            errors = rng.uniform(-10, 10, size=500)
            ga_config = GAConfig(step_size=alpha)
            config = NuPIConfig(nu=0.0, kp=0.0, ki=alpha)
            ga, pi = make_dual_state(ga_config, [0.0]), make_dual_state(config, [0.0])
            for e in errors:
                ga = checked_dual_step(ga, ga_config, [e])
                pi = checked_dual_step(pi, config, [e])
                assert np.array_equal(ga.theta, pi.theta)

    def test_arithmetic_series(self):
        assert run_rule(GAConfig(step_size=0.1), [1.0] * 100)[-1] == pytest.approx(10.0, abs=1e-12)


class TestUMStep:
    def test_beta_zero_is_gradient_ascent(self):
        for gamma in (0.0, 0.7, 1.0):
            config = UMConfig(alpha=0.3, beta=0.0, gamma=gamma)
            thetas = run_rule(config, [1.0, -2.0, 0.5])
            np.testing.assert_allclose(thetas, 0.3 * np.cumsum([1.0, -2.0, 0.5]))

    def test_polyak_single_parameter_recurrence(self):
        # gamma = 0: theta_{t+1} = theta_t + alpha e_t + beta (theta_t - theta_{t-1})
        alpha, beta = 0.3, 0.6
        rng = np.random.default_rng(1)
        errors = rng.uniform(-5, 5, size=200)
        thetas = run_rule(UMConfig(alpha=alpha, beta=beta, gamma=0.0), errors)
        oracle = [0.0, alpha * errors[0]]  # theta0, theta1
        for t in range(1, len(errors)):
            oracle.append(oracle[-1] + alpha * errors[t] + beta * (oracle[-1] - oracle[-2]))
        np.testing.assert_allclose(thetas, oracle[1:], atol=1e-12)

    def test_nesterov_first_step(self):
        config = UMConfig(alpha=0.5, beta=0.5, gamma=1.0)
        assert run_rule(config, [1.0])[0] == pytest.approx(0.75)

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

    @pytest.mark.parametrize("gains", [{"alpha": 1e308, "beta": 0.5},
                                       {"alpha": 1.0, "beta": 1.0 - 2.0**-52, "gamma": 1e300},
                                       {"alpha": np.array([[1e308], [0.1]]), "beta": 0.5}],
                             ids=["kp", "gamma", "one-row"])
    def test_non_finite_mapped_gain_names_the_um_gains(self, gains):
        # kp overflows; the error is about the UM gains the caller wrote, not
        # about a NuPIConfig kp of -inf, and numpy warns of nothing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match="^UMConfig alpha, beta and gamma map "
                                                         "to a non-finite nuPI kp or ki$"):
                map_um_to_nupi(UMConfig(**gains))

    def test_iterate_equivalence_random_tuples(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            alpha = float(rng.uniform(1e-3, 2.0))
            beta = float(rng.uniform(-0.9, 0.9))
            gamma = float(rng.choice([0.0, 1.0]))
            errors = rng.uniform(-10, 10, size=1000)
            um_cfg = UMConfig(alpha=alpha, beta=beta, gamma=gamma)
            pi_cfg = map_um_to_nupi(um_cfg)
            um_state, pi_state = make_dual_state(um_cfg, [0.0]), make_dual_state(pi_cfg, [0.0])
            worst = 0.0
            for e in errors:
                um_state = checked_dual_step(um_state, um_cfg, [e])
                pi_state = checked_dual_step(pi_state, pi_cfg, [e])
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
            recursive = run_rule(config, errors)
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


# The paper's identities in exact arithmetic: Fraction gains, and states
# built directly on object arrays of Fractions (make_dual_state casts to
# float64), compared with zero tolerance. Re-associating a sum is exact over
# the rationals, so these properties cannot catch a reordered sum; a
# comparison of float bits with frozen copies of the rules can.
_RATIONAL = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 20))  # in [-60, 60]
_MOMENTUM = st.builds(Fraction, st.integers(-9, 9), st.just(10))  # in [-0.9, 0.9]


@st.composite
def _exact_start(draw):
    """theta0 and a run of errors, object arrays of Fractions of one length."""
    dim, steps = draw(st.integers(1, 3)), draw(st.integers(1, 20))
    vector = st.lists(_RATIONAL, min_size=dim, max_size=dim).map(
        lambda values: np.array(values, dtype=object))
    return draw(vector), draw(st.lists(vector, min_size=steps, max_size=steps))


def _exact_run(state, config, errors) -> list:
    """theta after each step of `state`'s rule over `errors`; every entry
    must still be a Fraction, so no step rounded through a float."""
    thetas = [state.advance(config, e).theta.tolist() for e in errors]
    assert all(type(v) is Fraction for theta in thetas for v in theta)
    return thetas


class TestExactIdentities:
    @given(alpha=_RATIONAL, beta=_MOMENTUM, gamma=_RATIONAL, start=_exact_start())
    def test_nupi_reproduces_unified_momentum(self, alpha, beta, gamma, start):
        theta0, errors = start
        um = UMConfig(alpha=alpha, beta=beta, gamma=gamma)
        assert (_exact_run(NuPIState(theta0), map_um_to_nupi(um), errors)
                == _exact_run(UMState(theta0), um, errors))

    @given(nu=_RATIONAL, ki=_RATIONAL, policy=st.sampled_from(Xi0Policy), start=_exact_start())
    def test_kp_zero_is_gradient_ascent(self, nu, ki, policy, start):
        theta0, errors = start
        config = NuPIConfig(nu=nu, kp=Fraction(0), ki=ki, xi0_policy=policy)
        assert (_exact_run(NuPIState(theta0), config, errors)
                == _exact_run(GAState(theta0), GAConfig(step_size=ki), errors))

    @given(gain=_RATIONAL, start=_exact_start())
    def test_kp_equal_ki_with_nu_zero_is_optimistic_gradient_ascent(self, gain, start):
        # theta_{t+1} = theta_t + gain (2 e_t - e_{t-1}), with e_{-1} = 0 (xi_0 = e_0)
        theta0, errors = start
        config = NuPIConfig(nu=Fraction(0), kp=gain, ki=gain)
        expected, theta, previous = [], theta0, 0 * theta0
        for e in errors:
            theta, previous = theta + gain * (2 * e - previous), e
            expected.append(theta.tolist())
        assert _exact_run(NuPIState(theta0), config, errors) == expected

    @given(nu=_MOMENTUM, kp=_RATIONAL, ki=_RATIONAL, policy=st.sampled_from(Xi0Policy),
           start=_exact_start())
    def test_cumulative_form_equals_recursion(self, nu, kp, ki, policy, start):
        # theta_{t+1} = theta_0 + ki (e_0 + ... + e_t) + kp xi_t, with the EMA
        # summed out: xi_t = nu^t xi_0 + (1 - nu) sum_{s=1..t} nu^(t-s) e_s
        theta0, errors = start
        xi0 = errors[0] if policy is Xi0Policy.MATCH_ERROR else (1 - nu) * errors[0]
        expected = []
        for t in range(len(errors)):
            xi = nu**t * xi0 + sum(((1 - nu) * nu**(t - s) * errors[s] for s in range(1, t + 1)),
                                   0 * xi0)
            expected.append((theta0 + ki * sum(errors[:t + 1]) + kp * xi).tolist())
        config = NuPIConfig(nu=nu, kp=kp, ki=ki, xi0_policy=policy)
        assert _exact_run(NuPIState(theta0), config, errors) == expected


_FLOATS = st.floats(-1e6, 1e6, allow_nan=False)


def _vectors(size):
    return st.lists(_FLOATS, min_size=size, max_size=size).map(
        lambda values: np.array(values, dtype=np.float64))


class TestDualRestarts:
    def test_strictly_satisfied_resets(self):
        out = apply_dual_restarts(np.array([5.0, 5.0, 5.0]), 3, [-0.1, 0.0, 0.2])
        np.testing.assert_array_equal(out, [0.0, 5.0, 5.0])

    def test_all_violated_unchanged(self):
        theta = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(apply_dual_restarts(theta, 2, [0.5, 0.1]), theta)

    def test_tiny_negative_triggers(self):
        assert apply_dual_restarts(np.array([7.0]), 1, [-1e-300])[0] == 0.0

    @given(m=st.integers(0, 8), n=st.integers(0, 3), data=st.data())
    def test_commutes_with_projection(self, m, n, data):
        # also: idempotent, the equality block untouched, and the reference's
        # (lam, mu) rule bit for bit
        theta, g = data.draw(_vectors(m + n)), data.draw(_vectors(m))
        restarted = apply_dual_restarts(theta, m, g)
        assert np.array_equal(project_theta(restarted, m),
                              apply_dual_restarts(project_theta(theta, m), m, g))
        assert np.array_equal(apply_dual_restarts(restarted, m, g), restarted)
        assert restarted[m:].tobytes() == theta[m:].tobytes()
        lam, mu = loop_reference.apply_dual_restarts(theta[:m], theta[m:], g)
        assert restarted.dtype == np.float64
        assert restarted.tobytes() == np.concatenate([lam, mu]).tobytes()

    def test_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            apply_dual_restarts(np.array([1.0]), 1, [0.1, 0.2])


class TestAdamDualStep:
    def test_first_step_is_nearly_sign_step(self):
        assert run_rule(AdamConfig(step_size=0.25), [1.0])[0] == pytest.approx(0.25, rel=1e-7)

    def test_zero_error_never_moves(self):
        assert np.all(run_rule(AdamConfig(step_size=0.5), [0.0] * 20, theta0=1.5) == 1.5)

    def test_constant_error_steady_increment(self):
        # with constant error c the bias-corrected moments are exactly c and
        # c^2, so every increment is step * c / (|c| + eps)
        c, eta = 0.8, 0.05
        thetas = run_rule(AdamConfig(step_size=eta), [c] * 50)
        for inc in np.diff(thetas, prepend=0.0):
            assert inc == pytest.approx(eta * c / (c + ADAM_EPS), rel=1e-12)

    def test_non_finite_rejected(self):
        config = AdamConfig(step_size=0.1)
        with pytest.raises(NumericalError):
            checked_dual_step(make_dual_state(config, [0.0]), config, [np.inf])


class TestDispatchTable:
    CONFIGS = [NuPIConfig(nu=0.5, kp=1.0, ki=0.1), UMConfig(alpha=0.1, beta=0.5, gamma=1.0),
               GAConfig(step_size=0.1), AdamConfig(step_size=0.1)]

    def test_unknown_config_rejected(self):
        class Unknown:
            pass

        with pytest.raises(ConfigurationError, match="Unknown"):
            make_dual_state(Unknown(), [0.0])
        with pytest.raises(ConfigurationError, match="Unknown"):
            dual_step(make_dual_state(GAConfig(step_size=0.1), [0.0]), Unknown(), [1.0])
        with pytest.raises(ConfigurationError, match="Unknown"):
            checked_dual_step(make_dual_state(GAConfig(step_size=0.1), [0.0]), Unknown(), [1.0])
        with pytest.raises(ConfigurationError, match="Unknown"):
            dual_config_warnings(Unknown())

    @pytest.mark.parametrize("made_for,stepped_with",
                             [(i, j) for i in range(4) for j in range(4) if i != j])
    def test_state_of_another_rule_rejected(self, made_for, stepped_with):
        state = make_dual_state(self.CONFIGS[made_for], [0.5])
        before = dict(vars(state))
        config = self.CONFIGS[stepped_with]
        with pytest.raises(ConfigurationError) as info:
            checked_dual_step(state, config, [1.0])
        message = str(info.value)
        assert type(state).__name__ in message and type(config).__name__ in message
        assert vars(state) == before

    def test_warnings(self):
        bad_nupi = NuPIConfig(nu=1.5, kp=1.0, ki=-0.1)
        bad_um = UMConfig(alpha=0.5, beta=-0.5, gamma=1.0)
        assert len(dual_config_warnings(bad_nupi)) == 2
        assert dual_config_warnings(bad_nupi) == nupi_config_warnings(bad_nupi)
        assert dual_config_warnings(bad_um) == um_config_warnings(bad_um) != []
        assert dual_config_warnings(GAConfig(step_size=-1.0)) == []
        assert dual_config_warnings(AdamConfig(step_size=-1.0)) == []

    def test_warnings_per_row(self):
        # scalar gains keep their messages; per-row gains are tested
        # elementwise, and the message names how many rows are out of range
        assert dual_config_warnings(NuPIConfig(nu=1.5, kp=1.0, ki=-0.1)) == [
            "ki = -0.1 is not positive; the integral term will not ascend",
            "nu = 1.5 is outside (-1, 1); the error EMA does not contract"]
        assert dual_config_warnings(UMConfig(alpha=0.5, beta=-0.5, gamma=1.0)) == [
            "gamma = 1.0 is outside [0, 1/(1-beta)] = [0, 0.666667]"]
        rows = NuPIConfig(nu=np.array([[0.5], [1.5], [-2.0]]), kp=1.0,
                          ki=np.array([[0.1], [0.0], [0.2]]))
        assert dual_config_warnings(rows) == [
            "ki (1 of 3 rows) is not positive; the integral term will not ascend",
            "nu (2 of 3 rows) is outside (-1, 1); the error EMA does not contract"]
        assert dual_config_warnings(NuPIConfig(nu=np.zeros((3, 1)), kp=1.0,
                                               ki=np.ones((3, 1)))) == []
        # beta = 1 and beta > 1 have no interval to leave
        um = UMConfig(alpha=0.1, beta=np.array([[0.5], [1.0], [0.5], [2.0]]),
                      gamma=np.array([[3.0], [5.0], [1.0], [7.0]]))
        assert dual_config_warnings(um) == ["gamma (1 of 4 rows) is outside [0, 1/(1-beta)]"]

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
        for config in self.CONFIGS:
            state = make_dual_state(config, [0.5, 0.5])
            for error in ([1.0, -1.0], [0.25, 2.0]):  # nuPI's first step differs
                before = {k: np.copy(v) for k, v in vars(state).items()}
                stepped = checked_dual_step(state, config, error)
                assert stepped is not state
                for name, value in before.items():
                    assert np.array_equal(vars(state)[name], value), (config, name)
                assert dual_step(state, config, error) is state
                for name, value in vars(stepped).items():
                    assert np.array_equal(vars(state)[name], value), (config, name)


# Per-column gains of each rule, as keyword arguments of its config.
_COLUMN_GAINS = {
    NuPIConfig: st.fixed_dictionaries({"nu": st.floats(-0.95, 0.95), "kp": st.floats(-5.0, 5.0),
                                       "ki": st.floats(1e-3, 2.0)}),
    UMConfig: st.fixed_dictionaries({"alpha": st.floats(1e-6, 2.0), "beta": st.floats(-0.9, 0.9),
                                     "gamma": st.floats(0.0, 1.0)}),
    GAConfig: st.fixed_dictionaries({"step_size": st.floats(1e-3, 2.0)}),
    AdamConfig: st.fixed_dictionaries({"step_size": st.floats(1e-3, 2.0)}),
}


class TestArrayGains:
    @settings(max_examples=60, deadline=None)
    @given(rule=st.sampled_from(sorted(_COLUMN_GAINS, key=lambda c: c.__name__)),
           cells=st.integers(1, 8), width=st.integers(1, 4), steps=st.integers(100, 140),
           policy=st.sampled_from(list(Xi0Policy)), seed=st.integers(0, 2**32 - 1),
           data=st.data())
    def test_column_equals_scalar_gain_run(self, rule, cells, width, steps, policy, seed, data):
        # column k of a state stepped with (cells, 1) gains is the run with row k's gains
        gains = [data.draw(_COLUMN_GAINS[rule]) for _ in range(cells)]
        shared = {"xi0_policy": policy} if rule is NuPIConfig else {}
        stacked = rule(**{key: np.array([[g[key]] for g in gains]) for key in gains[0]}, **shared)
        scalar = [rule(**g, **shared) for g in gains]
        errors = np.random.default_rng(seed).uniform(-10.0, 10.0, size=(steps, cells, width))
        state = make_dual_state(stacked, np.zeros((cells, width)))
        columns = [make_dual_state(config, np.zeros(width)) for config in scalar]
        for e in errors:
            state = checked_dual_step(state, stacked, e)
            for k, config in enumerate(scalar):
                columns[k] = checked_dual_step(columns[k], config, e[k])
                assert state.theta[k].tobytes() == columns[k].theta.tobytes()

    def test_gain_arrays_spread_gains_and_products(self):
        config = gain_arrays(NuPIConfig(nu=np.array([[0.5], [-0.25]]), kp=3.0, ki=0.1), (2, 3))
        for name in ("nu", "kp", "ki", "one_minus_nu", "kp_one_minus_nu"):
            value = getattr(config, name)
            assert value.shape == (2, 3) and value.dtype == np.float64, name
        assert config.kp_one_minus_nu.tolist() == [[1.5] * 3, [3.75] * 3]
        assert gain_arrays(UMConfig(alpha=1.0, beta=0.5, gamma=0.5), (4,)).beta_gamma.tolist() == [
            0.25] * 4
        with pytest.raises(ConfigurationError, match=r"broadcast to the multipliers' shape \(2, 3\)"):
            gain_arrays(NuPIConfig(nu=np.zeros((3, 1)), kp=1.0, ki=1.0), (2, 3))

    def test_um_mapping_entrywise(self):
        # enough draws that a scalar-only operation (such as a float power,
        # which rounds differently from numpy's) shows in some entry
        rng = np.random.default_rng(3)
        alpha, beta = rng.uniform(1e-6, 2.0, (5000, 1)), rng.uniform(-0.9, 0.9, (5000, 1))
        gamma = rng.choice([0.0, 1.0], (5000, 1))
        mapped = map_um_to_nupi(UMConfig(alpha=alpha, beta=beta, gamma=gamma))
        for k in range(5000):
            one = map_um_to_nupi(UMConfig(alpha=float(alpha[k, 0]), beta=float(beta[k, 0]),
                                          gamma=float(gamma[k, 0])))
            assert (mapped.nu[k, 0], mapped.kp[k, 0], mapped.ki[k, 0]) == (one.nu, one.kp, one.ki)
        with pytest.raises(ConfigurationError):
            map_um_to_nupi(UMConfig(alpha=alpha, beta=np.where(beta > 0.5, 1.0, beta), gamma=gamma))

    def test_stacked_error_shape_checked(self):
        config = NuPIConfig(nu=np.zeros((3, 1)), kp=np.ones((3, 1)), ki=np.ones((3, 1)))
        state = make_dual_state(config, np.zeros((3, 2)))
        for error in (np.zeros((3, 3)), np.zeros((2, 2)), np.zeros(6), np.zeros((2, 3, 2))):
            with pytest.raises(ConfigurationError, match=r"error signal must have shape \(3, 2\)"):
                checked_dual_step(state, config, error)
        bad = np.zeros((3, 2))
        bad[2, 1] = np.nan
        with pytest.raises(NumericalError, match=r"indices \[5\]"):
            checked_dual_step(state, config, bad)


# Each config checks its gains when it is built: a finite real number or a
# float array of finite entries (per-row gains) passes, anything else is a
# ConfigurationError naming the class and the field.
_VALID_GAINS = {NuPIConfig: {"nu": 0.0, "kp": 1.0, "ki": 0.1},
                UMConfig: {"alpha": 0.1, "beta": 0.5, "gamma": 1.0},
                GAConfig: {"step_size": 0.1}, AdamConfig: {"step_size": 0.1}}
_GAIN_VALUES = {
    "float": (0.5, True), "int": (2, True), "float32": (np.float32(0.5), True),
    "rows": (np.full((3, 1), 0.5), True),
    "none": (None, False), "string": ("3", False), "list": ([0.1], False),
    "bool": (True, False), "nan": (np.nan, False), "-inf": (-np.inf, False),
    "complex": (1j, False), "nan-row": (np.array([[0.5], [np.nan]]), False),
    "int-rows": (np.ones((2, 1), dtype=int), False), "bool-rows": (np.ones(2, dtype=bool), False),
    "huge-int": (10**400, False),
}


@pytest.mark.parametrize("kind", sorted(_GAIN_VALUES))
@pytest.mark.parametrize("cls", list(_VALID_GAINS), ids=lambda cls: cls.__name__)
def test_gains_checked_when_built(cls, kind):
    value, accepted = _GAIN_VALUES[kind]
    for name in cls.GAINS:
        gains = {**_VALID_GAINS[cls], name: value}
        if accepted:
            assert getattr(cls(**gains), name) is value
        else:
            with pytest.raises(ConfigurationError, match=f"^{cls.__name__} {name} must be "):
                cls(**gains)


@pytest.mark.parametrize("policy", ["match-um", None, 0])
def test_xi0_policy_must_be_a_policy(policy):
    # any other value used to run as MATCH_UM
    with pytest.raises(ConfigurationError,
                       match=f"^NuPIConfig xi0_policy must be a Xi0Policy, got {policy!r}$"):
        NuPIConfig(nu=0.0, kp=1.0, ki=0.1, xi0_policy=policy)
