"""Tests for update-ratio interpretation, QP spectra, damping regimes, and
the continuous-time flow."""

import math
import re
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.linalg import expm

from numax import (
    ConfigurationError,
    GAConfig,
    Mode,
    NuPIConfig,
    NuPIState,
    NumericalError,
    QPSystem,
    RatioInputs,
    RegimeKind,
    checked_dual_step,
    classify_mode,
    classify_regime,
    critical_kp,
    eigen_1d,
    kkt_solve_qp,
    make_dual_state,
    qp_system_matrix,
    relative_update_ratio,
    simulate_flow,
)
from numax import analysis
from numax.analysis import default_flow_dt, flow_initial_state, flow_state_matrix
from reference import flow_reference


def fig9_system(kp):
    return QPSystem(H=[[1.0]], A=[[-1.0]], b=[0.0], c_lin=[0.0], kp=kp, ki=1.0)


class TestRelativeUpdateRatio:
    def test_kp_zero_degenerates_to_ga(self):
        for e, xi in ((1.0, 3.0), (-2.0, 0.5), (0.1, -4.0)):
            ratio = relative_update_ratio(RatioInputs(kp=0.0, ki=0.7, nu=0.2, xi_prev=xi, e_t=e))
            assert ratio == 1.0

    def test_hand_substitution(self):
        ratio = relative_update_ratio(RatioInputs(kp=1.0, ki=1.0, nu=0.0, xi_prev=1.0, e_t=1.0))
        assert ratio == pytest.approx(1.0)

    def test_optimistic_boundary_is_zero(self):
        # e_t = psi * xi_prev gives ratio 0 (the multiplier-decrease boundary)
        kp, ki, nu, xi = 2.0, 1.0, 0.0, 3.0
        psi = kp * (1 - nu) / (ki + kp * (1 - nu))
        ratio = relative_update_ratio(RatioInputs(kp=kp, ki=ki, nu=nu, xi_prev=xi, e_t=psi * xi))
        assert ratio == pytest.approx(0.0, abs=1e-15)

    def test_matches_actual_increment_quotient(self):
        rng = np.random.default_rng(21)
        checked = 0
        while checked < 1000:
            kp = float(rng.uniform(-3, 3))
            ki = float(rng.uniform(0.05, 3))
            nu = float(rng.uniform(-0.9, 0.9))
            xi = float(rng.uniform(-5, 5))
            e = float(rng.uniform(-5, 5))
            if e == 0.0 or abs(ki + kp * (1 - nu)) < 1e-6:
                continue
            checked += 1
            ratio = relative_update_ratio(RatioInputs(kp=kp, ki=ki, nu=nu, xi_prev=xi, e_t=e))
            # literal one-step increments from the optimizer module
            config = NuPIConfig(nu=nu, kp=kp, ki=ki)
            warm = NuPIState(theta=np.array([0.0]), xi=np.array([xi]))  # past t=0
            nupi_inc = checked_dual_step(warm, config, [e]).theta[0]
            ga_config = GAConfig(step_size=ki)
            ga_inc = checked_dual_step(make_dual_state(ga_config, [0.0]), ga_config, [e]).theta[0]
            assert abs(ratio - nupi_inc / ga_inc) <= 1e-12 * max(1.0, abs(ratio))

    def test_zero_error_rejected(self):
        with pytest.raises(NumericalError, match="GA step is zero"):
            relative_update_ratio(RatioInputs(kp=1.0, ki=1.0, nu=0.0, xi_prev=1.0, e_t=0.0))

    def test_ill_defined_psi_rejected(self):
        with pytest.raises(ConfigurationError):
            relative_update_ratio(RatioInputs(kp=1.0, ki=-1.0, nu=0.0, xi_prev=1.0, e_t=1.0))
        with pytest.raises(ConfigurationError):
            relative_update_ratio(RatioInputs(kp=1.0, ki=0.0, nu=0.0, xi_prev=1.0, e_t=1.0))


class TestClassifyMode:
    def test_examples(self):
        base = dict(kp=1.0, ki=1.0, nu=0.0)
        psi = 0.5
        assert classify_mode(RatioInputs(**base, xi_prev=1.0, e_t=2.0)) is Mode.A
        assert classify_mode(RatioInputs(**base, xi_prev=1.0, e_t=-0.5)) is Mode.A
        assert classify_mode(RatioInputs(**base, xi_prev=1.0, e_t=(1 + psi) / 2)) is Mode.B
        assert classify_mode(RatioInputs(**base, xi_prev=1.0, e_t=psi / 2)) is Mode.C

    def test_boundary_conventions(self):
        base = dict(kp=1.0, ki=1.0, nu=0.0)
        psi = 0.5
        assert classify_mode(RatioInputs(**base, xi_prev=1.0, e_t=1.0)) is Mode.B
        assert classify_mode(RatioInputs(**base, xi_prev=1.0, e_t=psi)) is Mode.C
        assert classify_mode(RatioInputs(**base, xi_prev=1.0, e_t=0.0)) is Mode.C

    def test_preconditions(self):
        with pytest.raises(ConfigurationError, match="xi_prev"):
            classify_mode(RatioInputs(kp=1.0, ki=1.0, nu=0.0, xi_prev=-1.0, e_t=1.0))
        with pytest.raises(ConfigurationError, match="psi"):
            classify_mode(RatioInputs(kp=0.0, ki=1.0, nu=0.0, xi_prev=1.0, e_t=1.0))

    def test_ratio_sign_structure(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            kp = float(rng.uniform(0.05, 3))
            ki = float(rng.uniform(0.05, 3))
            nu = float(rng.uniform(-0.9, 0.9))
            if not 0.0 < kp * (1 - nu) / (ki + kp * (1 - nu)) < 1.0:
                continue
            xi = float(rng.uniform(0.01, 5))
            e = float(rng.uniform(-5, 5))
            if e == 0.0:
                continue
            inputs = RatioInputs(kp=kp, ki=ki, nu=nu, xi_prev=xi, e_t=e)
            mode = classify_mode(inputs)
            ratio = relative_update_ratio(inputs)
            if mode is Mode.A:
                assert ratio > 1.0
            elif mode is Mode.B:
                assert 0.0 <= ratio <= 1.0 + 1e-12
            else:
                assert ratio <= 1e-12


class TestSystemMatrix:
    def test_bilinear_block_structure(self):
        sys = QPSystem(H=np.zeros((2, 2)), A=[[1.0, 2.0]], b=[0.0],
                       c_lin=[0.0, 0.0], kp=0.5, ki=2.0)
        U = qp_system_matrix(sys)
        A = np.array([[1.0, 2.0]])
        np.testing.assert_array_equal(U[:2, :2], np.zeros((2, 2)))
        np.testing.assert_array_equal(U[:2, 2:], A.T)
        np.testing.assert_array_equal(U[2:, :2], -2.0 * A)
        np.testing.assert_array_equal(U[2:, 2:], 0.5 * (A @ A.T))

    def test_one_dimensional_blocks(self):
        h, a, kp, ki = 1.3, -0.7, 2.0, 0.4
        sys = QPSystem(H=[[h]], A=[[a]], b=[0.0], c_lin=[0.0], kp=kp, ki=ki)
        U = qp_system_matrix(sys)
        np.testing.assert_allclose(U, [[h, a], [a * (kp * h - ki), kp * a * a]])

    def test_identity_substitution(self):
        sys = QPSystem(H=[[1.0]], A=[[1.0]], b=[0.0], c_lin=[0.0], kp=0.0, ki=1.0)
        np.testing.assert_array_equal(qp_system_matrix(sys), [[1.0, 1.0], [-1.0, 0.0]])

    @pytest.mark.parametrize("b, c_lin, message", [
        ([0.0, 1.0], [0.0, 0.0], "b must have shape (1,), got (2,)"),
        ([], [0.0, 0.0], "b must have shape (1,), got (0,)"),
        ([0.0], [0.0], "c_lin must have shape (2,), got (1,)"),
        ([0.0], [0.0, 0.0, 0.0], "c_lin must have shape (2,), got (3,)"),
    ])
    def test_vector_lengths_checked(self, b, c_lin, message):
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            QPSystem(H=np.eye(2), A=[[1.0, 0.0]], b=b, c_lin=c_lin, kp=0.0, ki=1.0)

    def test_symmetry_enforced(self):
        with pytest.raises(ConfigurationError, match="symmetric"):
            QPSystem(H=[[1.0, 0.1], [0.0, 1.0]], A=[[1.0, 0.0]], b=[0.0],
                     c_lin=[0.0, 0.0], kp=0.0, ki=1.0)


class TestEigen1D:
    def test_critical_damping_double_root(self):
        lam1, lam2 = eigen_1d(1.0, -1.0, 1.0, 1.0)
        assert lam1 == pytest.approx(-1.0) and lam2 == pytest.approx(-1.0)

    def test_bilinear_pure_imaginary(self):
        lam1, lam2 = eigen_1d(0.0, 1.0, 0.0, 1.0)
        assert lam1 == pytest.approx(1j) and lam2 == pytest.approx(-1j)

    def test_divergent_double_root(self):
        lam1, lam2 = eigen_1d(1.0, -1.0, -3.0, 1.0)
        assert lam1 == pytest.approx(1.0) and lam2 == pytest.approx(1.0)

    def test_matches_numerical_spectrum(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            h = float(rng.uniform(-2, 2))
            a = float(rng.uniform(0.1, 2) * rng.choice([-1, 1]))
            kp = float(rng.uniform(-5, 5))
            ki = float(rng.uniform(0, 3))
            sys = QPSystem(H=[[h]], A=[[a]], b=[0.0], c_lin=[0.0], kp=kp, ki=ki)
            closed = sorted(eigen_1d(h, a, kp, ki), key=lambda z: (z.real, z.imag))
            numeric = sorted(np.linalg.eigvals(-qp_system_matrix(sys)),
                             key=lambda z: (z.real, z.imag))
            for c, n in zip(closed, numeric):
                assert abs(c - n) <= 1e-10 * max(1.0, abs(n))

    @pytest.mark.parametrize("h, a, kp, ki", [(1e200, 1.0, 1.0, 1.0), (1.0, 1e200, 1.0, 1.0),
                                              (1.0, 1.0, 1.0, 1e308), (-1e308, 1.0, -1e308, 1.0)])
    def test_overflow_refused(self, h, a, kp, ki):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="^eigenvalues overflow: h \\+ kp a\\^2 = "):
                eigen_1d(h, a, kp, ki)


class TestCriticalKp:
    def test_fig9_parameters(self):
        gains = critical_kp(1.0, -1.0, 1.0)
        assert gains.kp_plus == pytest.approx(1.0)
        assert gains.kp_minus == pytest.approx(-3.0)
        assert gains.convergent == pytest.approx(1.0)

    def test_zero_ki_collapses(self):
        gains = critical_kp(2.0, 0.5, 0.0)
        assert gains.kp_plus == gains.kp_minus == pytest.approx(-8.0)

    def test_bilinear_case(self):
        gains = critical_kp(0.0, 1.0, 4.0)
        assert gains.kp_plus == pytest.approx(4.0)
        assert gains.kp_minus == pytest.approx(-4.0)
        assert gains.convergent == pytest.approx(4.0)

    def test_zero_discriminant_at_roots(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            h = float(rng.uniform(-2, 2))
            a = float(rng.uniform(0.2, 2) * rng.choice([-1, 1]))
            ki = float(rng.uniform(0.1, 3))
            gains = critical_kp(h, a, ki)
            for kp in (gains.kp_plus, gains.kp_minus):
                s = h + kp * a * a
                disc = s * s - 4.0 * a * a * ki
                assert abs(disc) <= 1e-9

    def test_a_zero_rejected(self):
        with pytest.raises(ConfigurationError):
            critical_kp(1.0, 0.0, 1.0)

    @pytest.mark.parametrize("h, a, ki", [(1.0, -1.0, -1e-300), (0.0, 2.0, -4.0),
                                          (-3.0, 0.5, -np.inf)])
    def test_negative_ki_rejected(self, h, a, ki):
        with pytest.raises(ConfigurationError, match="^critical_kp requires ki >= 0$"):
            critical_kp(h, a, ki)

    @pytest.mark.parametrize("ki", [0.0, 5e-324, 1e-300, 1e-17, 0.3])
    def test_only_the_larger_root_converges(self, ki):
        # h + kp_minus a^2 rounds to at most h + kp_plus a^2, so kp_minus is
        # never the convergent gain, even where ki makes the roots coincide.
        rng = np.random.default_rng(12)
        for _ in range(200):
            h = float(rng.uniform(-3, 3) * 10.0 ** rng.integers(-8, 8))
            a = float(rng.uniform(0.1, 3) * rng.choice([-1, 1]))
            gains = critical_kp(h, a, ki)
            a2 = a * a
            assert h + gains.kp_minus * a2 <= h + gains.kp_plus * a2
            expected = gains.kp_plus if h + gains.kp_plus * a2 > 0.0 else None
            assert gains.convergent == expected


class TestClassifyRegime:
    def test_examples(self):
        assert classify_regime([-1.0, -1.0]).kind is RegimeKind.CRITICALLY_DAMPED
        assert classify_regime([-0.5 + 2j, -0.5 - 2j]).kind is RegimeKind.UNDERDAMPED
        assert classify_regime([1j, -1j]).kind is RegimeKind.MARGINAL
        assert classify_regime([-1.0, -2.0]).kind is RegimeKind.OVERDAMPED
        assert classify_regime([1.0, 2.0]).kind is RegimeKind.DIVERGENT_MONOTONE
        assert classify_regime([0.5 + 1j, 0.5 - 1j]).kind is RegimeKind.DIVERGENT_OSCILLATORY
        assert classify_regime([1.0, -2.0]).kind is RegimeKind.DIVERGENT_MONOTONE

    @pytest.mark.parametrize("eigenvalues", [[], (), np.zeros(0), np.zeros(0, dtype=complex)],
                             ids=["list", "tuple", "float_array", "complex_array"])
    def test_no_eigenvalue_rejected(self, eigenvalues):
        with pytest.raises(ConfigurationError, match="at least one eigenvalue"):
            classify_regime(eigenvalues)

    def test_non_finite_eigenvalue_refused(self):
        # what eigen_1d returned for h = 1e200 before it refused the overflow
        with pytest.raises(NumericalError, match=re.escape("non-finite eigenvalues ((inf+nanj)")):
            classify_regime([complex(np.inf, np.nan), complex(-np.inf, np.nan)])

    def test_boundaries_by_bisection(self):
        # Fig. 9 parameters: regime transitions at kp = -3, -1, +1
        def kind_at(kp):
            return classify_regime(eigen_1d(1.0, -1.0, kp, 1.0)).kind

        def bisect(lo, hi, crossed):
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if crossed(kind_at(mid)):
                    hi = mid
                else:
                    lo = mid
            return 0.5 * (lo + hi)

        K = RegimeKind
        b1 = bisect(-5.0, -2.0, lambda k: k is not K.DIVERGENT_MONOTONE)
        b2 = bisect(-2.5, 0.0, lambda k: k in (K.MARGINAL, K.UNDERDAMPED,
                                               K.CRITICALLY_DAMPED, K.OVERDAMPED))
        b3 = bisect(0.0, 5.0, lambda k: k in (K.CRITICALLY_DAMPED, K.OVERDAMPED))
        assert b1 == pytest.approx(-3.0, abs=1e-6)
        assert b2 == pytest.approx(-1.0, abs=1e-6)
        assert b3 == pytest.approx(1.0, abs=1e-6)

    def test_ordered_sweep(self):
        order = [RegimeKind.DIVERGENT_MONOTONE, RegimeKind.DIVERGENT_OSCILLATORY,
                 RegimeKind.MARGINAL, RegimeKind.UNDERDAMPED,
                 RegimeKind.CRITICALLY_DAMPED, RegimeKind.OVERDAMPED]
        seen = []
        for kp in np.concatenate([np.linspace(-5, 5, 2001), [-1.0, 1.0]]):
            kind = classify_regime(eigen_1d(1.0, -1.0, float(kp), 1.0)).kind
            if kind not in seen:
                seen.append(kind)
        assert sorted(seen, key=order.index) == order


class TestSimulateFlow:
    @pytest.mark.parametrize("x0, mu0, message", [
        ([2.0], [1.0], "x0 must have shape (2,), got (1,)"),
        ([2.0, 0.0, 1.0], [1.0], "x0 must have shape (2,), got (3,)"),
        ([2.0, 0.0], [], "mu0 must have shape (1,), got (0,)"),
        ([2.0, 0.0], [1.0, 0.5], "mu0 must have shape (1,), got (2,)"),
    ])
    def test_start_lengths_checked(self, x0, mu0, message):
        sys = QPSystem(H=np.eye(2), A=[[1.0, 0.0]], b=[0.0], c_lin=[0.0, 0.0], kp=0.0, ki=1.0)
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            simulate_flow(sys, x0, mu0, t_end=1.0)

    def test_critical_damping_monotone_after_transient(self):
        gains = critical_kp(1.0, -1.0, 1.0)
        sys = QPSystem(H=[[1.0]], A=[[-1.0]], b=[0.5], c_lin=[0.2],
                       kp=gains.convergent, ki=1.0)
        x_star, mu_star = kkt_solve_qp(sys)
        res = simulate_flow(sys, [2.0], [1.5], t_end=30.0)
        dev = np.hypot(res.x[:, 0] - x_star[0], res.mu[:, 0] - mu_star[0])
        tail = dev[len(dev) // 4:]
        assert np.all(np.diff(tail) <= 1e-12)
        # mu crosses its limit at most once (no oscillation)
        signs = np.sign(res.mu[:, 0] - mu_star[0])
        signs = signs[signs != 0]
        assert np.sum(signs[1:] != signs[:-1]) <= 1

    def test_bilinear_norm_conserved(self):
        sys = QPSystem(H=[[0.0]], A=[[1.0]], b=[0.0], c_lin=[0.0], kp=0.0, ki=1.0)
        res = simulate_flow(sys, [1.0], [0.5], t_end=100.0)
        norms = np.linalg.norm(np.hstack([res.x, res.mu, res.xdot, res.mudot]), axis=1)
        assert float(np.max(np.abs(norms - norms[0]))) <= 1e-6

    def test_dt_halving_fourth_order(self):
        sys = QPSystem(H=[[1.0]], A=[[-1.0]], b=[0.3], c_lin=[0.1], kp=1.0, ki=1.0)
        M = flow_state_matrix(sys)
        z0 = flow_initial_state(sys, [2.0], [1.0])
        ref = expm(M * 5.0) @ z0
        errs = []
        for dt in (0.05, 0.025):
            res = simulate_flow(sys, [2.0], [1.0], dt=dt, t_end=5.0)
            z = np.concatenate([res.x[-1], res.mu[-1], res.xdot[-1], res.mudot[-1]])
            errs.append(float(np.max(np.abs(z - ref))))
        assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.2)

    def test_default_dt_scales_with_spectral_radius(self):
        tame = QPSystem(H=[[1.0]], A=[[1.0]], b=[0.0], c_lin=[0.0], kp=0.0, ki=1.0)
        stiff = QPSystem(H=[[100.0]], A=[[1.0]], b=[0.0], c_lin=[0.0], kp=0.0, ki=1.0)
        assert default_flow_dt(tame) == pytest.approx(0.01)
        assert default_flow_dt(stiff) < 0.001

    def test_matches_matrix_exponential(self):
        rng = np.random.default_rng(2)
        sys = QPSystem(H=[[2.0, 0.3], [0.3, 1.0]], A=[[1.0, -0.5]], b=[0.2],
                       c_lin=[0.1, -0.2], kp=2.0, ki=1.0)
        x0 = rng.standard_normal(2)
        mu0 = rng.standard_normal(1)
        res = simulate_flow(sys, x0, mu0, t_end=12.0)
        ref = expm(flow_state_matrix(sys) * res.times[-1]) @ flow_initial_state(sys, x0, mu0)
        z = np.concatenate([res.x[-1], res.mu[-1], res.xdot[-1], res.mudot[-1]])
        assert float(np.max(np.abs(z - ref))) <= 1e-8

    def test_convergent_systems_reach_limit_point(self):
        # once the slowest mode has decayed to 1e-8, the flow sits within
        # 1e-6 of the constrained optimum (velocities at zero)
        rng = np.random.default_rng(14)
        for _ in range(5):
            h = float(rng.uniform(0.3, 2.0))
            a = float(rng.uniform(0.3, 2.0) * rng.choice([-1, 1]))
            ki = float(rng.uniform(0.3, 2.0))
            kp = critical_kp(h, a, ki).convergent + float(rng.uniform(0.0, 1.0))
            sys = QPSystem(H=[[h]], A=[[a]], b=[rng.uniform(-1, 1)],
                           c_lin=[rng.uniform(-1, 1)], kp=kp, ki=ki)
            eigs = np.linalg.eigvals(-qp_system_matrix(sys))
            t_end = float(np.log(1e8) / -np.max(eigs.real))
            res = simulate_flow(sys, [rng.uniform(-2, 2)], [rng.uniform(-2, 2)],
                                t_end=t_end)
            x_star, mu_star = kkt_solve_qp(sys)
            z_star = np.concatenate([x_star, mu_star, [0.0, 0.0]])
            z = np.concatenate([res.x[-1], res.mu[-1], res.xdot[-1], res.mudot[-1]])
            assert float(np.max(np.abs(z - z_star))) <= 1e-6


@st.composite
def _flow_cases(draw):
    """A QP flow with 1 or 2 primal dimensions and one constraint, a step, a
    horizon of whole steps with or without a shorter final step, and few
    enough samples that only every k-th state (k >= 2) is stored. A diverging
    case adds 1e4 to H's diagonal, so RK4 overflows within the horizon, and
    scales the start, b and c_lin by 10^-e for e in [0, 300]: the flow is
    linear in them, so a tiny start overflows later than the powers of the
    RK4 matrix do."""
    entry = st.floats(-2.0, 2.0, allow_nan=False)
    n = draw(st.integers(1, 2))
    diverge = draw(st.booleans())
    exponent = draw(st.integers(0, 300)) if diverge else 0
    scale = 10.0 ** -exponent
    L = np.array(draw(st.lists(entry, min_size=n * n, max_size=n * n))).reshape(n, n)
    H = 0.5 * (L @ L.T + (L @ L.T).T) + (1e4 if diverge else 0.0) * np.eye(n)
    sys = QPSystem(H=H, A=[draw(st.lists(entry, min_size=n, max_size=n))],
                   b=[scale * draw(entry)],
                   c_lin=scale * np.array(draw(st.lists(entry, min_size=n, max_size=n))),
                   kp=draw(st.floats(0.0, 4.0)), ki=draw(st.floats(0.1, 2.0)))
    x0 = draw(st.lists(entry, min_size=n, max_size=n))
    if diverge:  # a nonzero start, so that the growth shows
        x0[0] = 1.0
    x0 = scale * np.array(x0)
    mu0 = [scale * draw(entry)]
    dt = draw(st.floats(0.005, 0.1))
    # RK4 grows a diverging state by at least 10^5 per step at dt >= 0.005
    steps = draw(st.integers(120 + exponent // 2 if diverge else 4, 300 + exponent // 2))
    remainder = draw(st.sampled_from([0.0, 0.25, 0.5, 0.9]))
    max_samples = draw(st.integers(2, steps // 2))
    return sys, x0, mu0, dt, (steps + remainder) * dt, max_samples, diverge


@given(_flow_cases())
def test_simulate_flow_matches_stepwise_reference(case):
    sys, x0, mu0, dt, t_end, max_samples, diverge = case
    got = simulate_flow(sys, x0, mu0, dt=dt, t_end=t_end, max_samples=max_samples)
    with np.errstate(over="ignore", invalid="ignore"):  # a diverging flow overflows in matmul
        ref = flow_reference.simulate_flow(sys, x0, mu0, dt=dt, t_end=t_end,
                                           max_samples=max_samples)
    _assert_matches_reference(got, ref)
    assert got.flagged or not diverge


def _assert_matches_reference(got, ref):
    assert np.array_equal(got.times, ref.times)
    assert got.flagged == ref.flagged
    scale = max(1.0, max(float(np.max(np.abs(getattr(ref, name))))
                         for name in ("x", "mu", "xdot", "mudot")))
    for name in ("x", "mu", "xdot", "mudot"):
        assert getattr(got, name).shape == getattr(ref, name).shape
        assert float(np.max(np.abs(getattr(got, name) - getattr(ref, name)))) <= 1e-12 * scale


@pytest.mark.parametrize("steps, remainder, max_samples, stride", [
    (2950, 0.0, 20001, 1),
    (2950, 0.5, 20001, 1),
    (8850, 0.0, 2951, 3),
    (5901, 0.5, 2952, 2),  # one full step left over after the last stride, then R_rem
])
def test_long_flow_matches_stepwise_reference(steps, remainder, max_samples, stride):
    sys = QPSystem(H=[[2.0, 0.3], [0.3, 1.0]], A=[[1.0, -0.5]], b=[0.2],
                   c_lin=[0.1, -0.2], kp=2.0, ki=1.0)
    dt = 0.01
    t_end = (steps + remainder) * dt
    got = simulate_flow(sys, [1.5, -0.7], [0.4], dt=dt, t_end=t_end, max_samples=max_samples)
    ref = flow_reference.simulate_flow(sys, [1.5, -0.7], [0.4], dt=dt, t_end=t_end,
                                       max_samples=max_samples)
    _assert_matches_reference(got, ref)
    assert ref.times[1] == pytest.approx(stride * dt)  # the case has the stride it names
    strided = steps // stride
    block = analysis._flow_block(flow_state_matrix(sys).shape[0], strided)
    assert strided > 3 * block and strided % block  # three full blocks and a partial one


def test_flow_whose_powers_overflow_in_the_first_block_matches_stepwise_reference():
    # From 1e-300 the state overflows about twice as late as the powers of R.
    sys = QPSystem(H=[[-40.0]], A=[[1.0]], b=[0.0], c_lin=[0.0], kp=1.0, ki=1.0)
    dt, t_end = 0.01, 200.0
    got = simulate_flow(sys, [1e-300], [0.0], dt=dt, t_end=t_end)
    with np.errstate(over="ignore", invalid="ignore"):
        ref = flow_reference.simulate_flow(sys, [1e-300], [0.0], dt=dt, t_end=t_end)
        M = dt * flow_state_matrix(sys)
        R = sum(np.linalg.matrix_power(M, k) / math.factorial(k) for k in range(5))  # RK4
        block = analysis._flow_block(len(M), round(t_end / dt))
        assert not np.isfinite(np.linalg.matrix_power(R, block)).all()
    assert got.flagged and ref.flagged
    assert len(got.times) == len(ref.times) > block
    _assert_matches_reference(got, ref)


@pytest.mark.parametrize("t_end, max_samples", [(15.0, 2), (30.0, 3)])
def test_sample_stepped_again_matches_stepwise_reference(t_end, max_samples):
    # S = R^1500 overflows while the state from 1e-300 reaches only about 1e220
    # after 1500 steps: that sample is stepped again one R at a time and is
    # finite; 1500 steps later the state overflows and the flow is flagged.
    sys = QPSystem(H=[[-80.0]], A=[[1.0]], b=[0.0], c_lin=[0.0], kp=0.0, ki=1.0)
    got = simulate_flow(sys, [1e-300], [0.0], dt=0.01, t_end=t_end, max_samples=max_samples)
    with np.errstate(over="ignore", invalid="ignore"):
        ref = flow_reference.simulate_flow(sys, [1e-300], [0.0], dt=0.01, t_end=t_end,
                                           max_samples=max_samples)
    _assert_matches_reference(got, ref)
    assert got.times.tolist() == [0.0, 15.0] and 1e220 < got.x[-1, 0] < 1e221
    assert got.flagged == (t_end == 30.0)


def test_unstable_flow_at_its_equilibrium_costs_what_a_stable_one_does():
    # Started at its KKT point the flow stays there, while the powers of
    # S = R^100 overflow after about 18 of them: only those are multiplied,
    # so the samples are not stepped one R at a time.
    def best_time(sys):
        times = []
        for _ in range(5):
            start = time.perf_counter()
            res = simulate_flow(sys, [0.0], [0.0], dt=0.01, t_end=2000.0, max_samples=2001)
            times.append(time.perf_counter() - start)
        assert not res.flagged and len(res.times) == 2001 and not np.any(res.x)
        return min(times)

    unstable, stable = (QPSystem(H=[[h]], A=[[1.0]], b=[0.0], c_lin=[0.0], kp=1.0, ki=1.0)
                        for h in (-40.0, 40.0))
    assert best_time(unstable) < 4 * best_time(stable)


@given(dt=st.one_of(st.floats(1e-4, 10.0), st.integers(-13, 3).map(lambda e: 2.0 ** e)),
       steps=st.integers(0, 4000), remainder=st.sampled_from([0.0, 0.1, 0.5, 0.9]),
       data=st.data())
def test_sample_times_are_step_counts_times_dt(dt, steps, remainder, data):
    # At most 4000 steps, so that t_end / dt rounds to within 1e-12 of steps + remainder.
    total = steps + (remainder > 0)
    max_samples = data.draw(st.integers(2, max(2, total + 2)))
    stride = max(1, -(-total // (max_samples - 1)))
    t_end = (steps + remainder) * dt
    # The flow from its equilibrium at 0 stays there, so every sample is stored.
    sys = QPSystem(H=[[1.0]], A=[[1.0]], b=[0.0], c_lin=[0.0], kp=1.0, ki=1.0)
    res = simulate_flow(sys, [0.0], [0.0], dt=dt, t_end=t_end, max_samples=max_samples)
    expected = [float(k * stride) * dt for k in range(steps // stride + 1)]
    if remainder:
        expected.append(t_end)
    elif steps % stride:
        expected.append(steps * dt)
    assert not res.flagged and res.times.tolist() == expected


def test_benchmark_bilinear_flow_matches_reference_and_keeps_norm():
    sys = QPSystem(H=[[0.0]], A=[[1.0]], b=[0.0], c_lin=[0.0], kp=0.0, ki=1.0)
    got = simulate_flow(sys, [0.3], [-1.2], dt=0.01, t_end=1000.0)
    ref = flow_reference.simulate_flow(sys, [0.3], [-1.2], dt=0.01, t_end=1000.0)
    _assert_matches_reference(got, ref)
    assert ref.times[1] == pytest.approx(5 * 0.01)
    norms = np.linalg.norm(np.hstack([got.x, got.mu, got.xdot, got.mudot]), axis=1)
    assert float(np.max(np.abs(norms - norms[0]))) <= 1e-6


@pytest.mark.parametrize("setting", [
    dict(dt=float("nan")),
    dict(dt=float("inf")),
    dict(t_end=float("nan")),
    dict(t_end=float("inf")),
    dict(t_end=-5.0),
    dict(dt=1e-300, t_end=1e10),
    dict(max_samples=0),
    dict(max_samples=1),
    dict(max_samples=-3),
])
def test_malformed_flow_input_rejected_before_any_matrix(setting, monkeypatch):
    def no_matrix(*_args):
        raise AssertionError("a matrix was built before the inputs were checked")

    for name in ("default_flow_dt", "flow_state_matrix", "flow_initial_state"):
        monkeypatch.setattr(analysis, name, no_matrix)
    sys = QPSystem(H=[[1.0]], A=[[1.0]], b=[0.3], c_lin=[0.1], kp=1.0, ki=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigurationError, match=next(iter(setting))):
            simulate_flow(sys, [1.0], [0.0], **setting)


@pytest.mark.parametrize("dt,t_end", [(1e-9, 1e10), (1.0, 1e9 + 1.0)])
def test_huge_step_count_rejected_at_once(dt, t_end):
    sys = QPSystem(H=[[1.0]], A=[[1.0]], b=[0.3], c_lin=[0.1], kp=1.0, ki=1.0)
    start = time.perf_counter()
    with pytest.raises(ConfigurationError, match="at most 1e\\+09 steps"):
        simulate_flow(sys, [1.0], [0.0], dt=dt, t_end=t_end)
    assert time.perf_counter() - start < 0.05


def test_zero_horizon_is_the_initial_sample():
    sys = QPSystem(H=[[1.0]], A=[[1.0]], b=[0.3], c_lin=[0.1], kp=1.0, ki=1.0)
    res = simulate_flow(sys, [1.0], [0.5], dt=0.1, t_end=0.0)
    assert np.array_equal(res.times, [0.0]) and not res.flagged
    z = np.concatenate([res.x[0], res.mu[0], res.xdot[0], res.mudot[0]])
    assert np.array_equal(z, flow_initial_state(sys, [1.0], [0.5]))


def test_diverging_flow_is_flagged_without_warning():
    sys = QPSystem(H=[[1e4 + 1]], A=[[1.0]], b=[0.3], c_lin=[0.1], kp=1.0, ki=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = simulate_flow(sys, [1.0], [0.0], dt=0.05, t_end=120 * 0.05)
        # a dt so long that the RK4 matrix itself overflows, applied or not
        huge = simulate_flow(sys, [1.0], [0.0], dt=1e100, t_end=1e101)
        unused = simulate_flow(sys, [1.0], [0.0], dt=1e308, t_end=1.0)
        # entries so large that M itself overflows, and with x0 = 1 or 10 the
        # start too, which flags the flow whatever its horizon
        huge_entries = QPSystem(H=[[1e308]], A=[[1.0]], b=[1.0], c_lin=[0.0], kp=10.0, ki=1.0)
        overflowing = [simulate_flow(huge_entries, [x0], [0.0], dt=0.1, t_end=t_end)
                       for x0, t_end in ((0.0, 1.0), (1.0, 1.0), (10.0, 0.0))]
        # with no dt to flag the flow at, the default dt is refused
        for no_dt in (lambda: default_flow_dt(huge_entries),
                      lambda: simulate_flow(huge_entries, [0.0], [0.0])):
            with pytest.raises(NumericalError, match="^the spectral radius of U overflows"):
                no_dt()
    assert res.flagged
    assert np.all(np.isfinite(res.x)) and res.times[-1] < 120 * 0.05
    assert huge.flagged and huge.times.tolist() == [0.0]
    assert not unused.flagged and unused.times.tolist() == [0.0, 1.0]
    assert all(flow.flagged and flow.times.tolist() == [0.0] for flow in overflowing)


class TestKktSolve:
    def test_hand_example(self):
        sys = QPSystem(H=np.eye(2), A=[[1.0, 0.0]], b=[1.0], c_lin=[0.0, 0.0],
                       kp=0.0, ki=1.0)
        x_star, mu_star = kkt_solve_qp(sys)
        np.testing.assert_allclose(x_star, [1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(mu_star, [-1.0], atol=1e-12)

    def test_origin_when_homogeneous(self):
        sys = QPSystem(H=np.eye(3), A=[[1.0, 1.0, 0.0]], b=[0.0],
                       c_lin=np.zeros(3), kp=0.0, ki=1.0)
        x_star, mu_star = kkt_solve_qp(sys)
        np.testing.assert_allclose(x_star, np.zeros(3), atol=1e-14)
        np.testing.assert_allclose(mu_star, [0.0], atol=1e-14)

    def test_random_instances_self_certify(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n, c = 4, 2
            Mx = rng.standard_normal((n, n))
            sys = QPSystem(H=Mx @ Mx.T + np.eye(n), A=rng.standard_normal((c, n)),
                           b=rng.standard_normal(c), c_lin=rng.standard_normal(n),
                           kp=0.0, ki=1.0)
            x_star, mu_star = kkt_solve_qp(sys)
            assert np.max(np.abs(sys.H @ x_star + sys.c_lin + sys.A.T @ mu_star)) <= 1e-9
            assert np.max(np.abs(sys.A @ x_star - sys.b)) <= 1e-9

    def test_singular_reported_with_condition(self):
        # rank-deficient constraints make the KKT matrix singular
        sys = QPSystem(H=np.eye(2), A=[[1.0, 0.0], [1.0, 0.0]], b=[1.0, 2.0],
                       c_lin=[0.0, 0.0], kp=0.0, ki=1.0)
        with pytest.raises(NumericalError, match="condition"):
            kkt_solve_qp(sys)

    def test_residuals_relative_to_scale(self):
        # b of size 1e12: a feasibility residual of about 1e-4 is a relative
        # error of about 1e-16, not a failed solve
        sys = QPSystem(H=np.eye(2), A=[[1e-8, 1.0]], b=[1e12], c_lin=[0.1, 0.2],
                       kp=0.0, ki=1.0)
        x_star, mu_star = kkt_solve_qp(sys)
        assert abs(sys.A @ x_star - sys.b)[0] <= 1e-15 * 1e12
        np.testing.assert_allclose(mu_star, [-1e12], rtol=1e-12)

    def test_overflowing_solution_refused_without_warning(self):
        # mu* = -3e290 / 1e-150 overflows; `filterwarnings = error` turns
        # any RuntimeWarning on the way into a failure
        sys = QPSystem(H=[[3.0]], A=[[1e-150]], b=[1e140], c_lin=[0.0], kp=0.0, ki=1.0)
        with pytest.raises(NumericalError, match=r"stationarity nan, feasibility inf, scale inf\)"):
            kkt_solve_qp(sys)

    def test_inaccurate_solve_refused(self, monkeypatch):
        sys = QPSystem(H=np.eye(2), A=[[1.0, 0.0]], b=[1.0], c_lin=[0.0, 0.0],
                       kp=0.0, ki=1.0)
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda K, rhs: solve(K, rhs) + 1e-6)
        with pytest.raises(NumericalError, match="residuals too large"):
            kkt_solve_qp(sys)
