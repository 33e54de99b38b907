"""Tests for the alternating/simultaneous descent-ascent drivers."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from numax import (
    AdamConfig,
    ConfigurationError,
    ConstrainedProblem,
    DualVector,
    GAConfig,
    LoopConfig,
    NuPIConfig,
    PrimalKind,
    PrimalOptimizerConfig,
    Scheme,
    TerminationReason,
    UMConfig,
    adam_dual_step,
    evaluate_lagrangian,
    init_adam,
    read_trajectory_csv,
    run,
    run_alternating,
    run_simultaneous,
    validate_gradients,
    write_trajectory_csv,
)
from numax.loop import _PrimalOptimizer


def gd(step):
    return PrimalOptimizerConfig(kind=PrimalKind.GRADIENT_DESCENT, step_size=step)


def unconstrained_norm_square(dim=3):
    return ConstrainedProblem(
        dim_primal=dim, num_ineq=0, num_eq=0,
        eval_objective=lambda x: float(x @ x),
        eval_objective_grad=lambda x: 2.0 * x,
        eval_ineq=lambda x: np.zeros(0),
        eval_eq=lambda x: np.zeros(0),
        eval_constraint_jacobian=lambda x: np.zeros((dim, 0)),
    )


def one_sided_line():
    # min x subject to x >= 1, i.e. g(x) = 1 - x; KKT point (x, lam) = (1, 1)
    return ConstrainedProblem(
        dim_primal=1, num_ineq=1, num_eq=0,
        eval_objective=lambda x: float(x[0]),
        eval_objective_grad=lambda x: np.ones(1),
        eval_ineq=lambda x: np.array([1.0 - x[0]]),
        eval_eq=lambda x: np.zeros(0),
        eval_constraint_jacobian=lambda x: np.array([[-1.0]]),
    )


def two_sided_plane():
    # min (x0 - 2)^2 + x1^2 s.t. 1 - x0 <= 0, x1 - 5 <= 0, x0 + x1 = 3; the
    # unconstrained minimizer strictly satisfies both inequalities
    return ConstrainedProblem(
        dim_primal=2, num_ineq=2, num_eq=1,
        eval_objective=lambda x: float((x[0] - 2.0) ** 2 + x[1] ** 2),
        eval_objective_grad=lambda x: np.array([2.0 * (x[0] - 2.0), 2.0 * x[1]]),
        eval_ineq=lambda x: np.array([1.0 - x[0], x[1] - 5.0]),
        eval_eq=lambda x: np.array([x[0] + x[1] - 3.0]),
        eval_constraint_jacobian=lambda x: np.array([[-1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]),
    )


def bilinear_game():
    # min_x max_theta theta * x: f = 0, h(x) = x
    return ConstrainedProblem(
        dim_primal=1, num_ineq=0, num_eq=1,
        eval_objective=lambda x: 0.0,
        eval_objective_grad=lambda x: np.zeros(1),
        eval_ineq=lambda x: np.zeros(0),
        eval_eq=lambda x: np.array([x[0]]),
        eval_constraint_jacobian=lambda x: np.array([[1.0]]),
    )


class TestUnconstrained:
    def test_reduces_to_plain_gradient_descent(self):
        problem = unconstrained_norm_square()
        config = LoopConfig(scheme=Scheme.ALTERNATING, max_steps=50,
                            dual_optimizer=GAConfig(step_size=0.1),
                            primal_optimizer=gd(0.1))
        traj = run_alternating(problem, np.full(3, 2.0), DualVector.zeros(0, 0), config)
        # x_{t+1} = (1 - 2 eta) x_t = 0.8 x_t
        np.testing.assert_allclose(traj.final.x, np.full(3, 2.0) * 0.8**50, rtol=1e-12)
        assert traj.terminated_reason is TerminationReason.MAX_STEPS

    def test_schemes_identical_without_constraints(self):
        problem = unconstrained_norm_square()
        config = LoopConfig(scheme=Scheme.ALTERNATING, max_steps=30,
                            dual_optimizer=GAConfig(step_size=0.1),
                            primal_optimizer=gd(0.07))
        x0 = np.array([1.0, -2.0, 0.5])
        ta = run_alternating(problem, x0, DualVector.zeros(0, 0), config)
        ts = run_simultaneous(problem, x0, DualVector.zeros(0, 0), config)
        for ra, rs in zip(ta.steps, ts.steps):
            assert ra.t == rs.t
            assert np.array_equal(ra.x, rs.x)
            assert ra.f == rs.f


class TestOneSidedLine:
    def test_ga_orbit_stays_bounded(self):
        problem = one_sided_line()
        config = LoopConfig(scheme=Scheme.ALTERNATING, max_steps=10000,
                            dual_optimizer=GAConfig(step_size=0.01),
                            primal_optimizer=gd(0.01))
        traj = run_alternating(problem, [0.0], DualVector.zeros(1, 0), config)
        deviations = [np.hypot(rec.x[0] - 1.0, rec.lam[0] - 1.0) for rec in traj.steps]
        assert max(deviations) < 3.0
        assert deviations[-1] > 1e-3  # orbits, does not converge

    def test_nupi_converges_to_kkt_point(self):
        problem = one_sided_line()
        config = LoopConfig(scheme=Scheme.ALTERNATING, max_steps=10000,
                            dual_optimizer=NuPIConfig(nu=0.0, kp=1.0, ki=0.01),
                            primal_optimizer=gd(0.01))
        traj = run_alternating(problem, [0.0], DualVector.zeros(1, 0), config)
        assert abs(traj.final.lam[0] - 1.0) < 1e-3
        assert abs(traj.final.x[0] - 1.0) < 1e-3


class TestBilinearGame:
    def test_simultaneous_diverges_at_spectral_rate(self):
        eta = 0.1
        problem = bilinear_game()
        config = LoopConfig(scheme=Scheme.SIMULTANEOUS, max_steps=200,
                            dual_optimizer=GAConfig(step_size=eta),
                            primal_optimizer=gd(eta))
        traj = run_simultaneous(problem, [1.0], DualVector([], [0.5]), config)
        norms = np.array([np.hypot(r.x[0], r.mu[0]) for r in traj.steps])
        assert np.all(np.diff(norms) > 0.0)
        # iteration matrix [[1, -eta], [eta, 1]] has |eigenvalue| = sqrt(1 + eta^2)
        rate = np.sqrt(1.0 + eta * eta)
        observed = (norms[-1] / norms[0]) ** (1.0 / (len(norms) - 1))
        assert observed == pytest.approx(rate, rel=1e-6)

    def test_alternating_stays_bounded(self):
        eta = 0.1
        # alternating matrix [[1 - eta^2, -eta], [eta, 1]] has det 1 and
        # |trace| < 2: eigenvalues on the unit circle
        mat = np.array([[1.0 - eta * eta, -eta], [eta, 1.0]])
        assert np.max(np.abs(np.linalg.eigvals(mat))) == pytest.approx(1.0, abs=1e-12)
        problem = bilinear_game()
        config = LoopConfig(scheme=Scheme.ALTERNATING, max_steps=5000,
                            dual_optimizer=GAConfig(step_size=eta),
                            primal_optimizer=gd(eta))
        traj = run_alternating(problem, [1.0], DualVector([], [0.5]), config)
        norms = [np.hypot(r.x[0], r.mu[0]) for r in traj.steps]
        assert max(norms) < 10.0 * norms[0]


class TestLoopMechanics:
    def test_lambda_nonnegative_for_every_dual_optimizer(self):
        problem = one_sided_line()
        for dual in (GAConfig(step_size=0.3),
                     NuPIConfig(nu=0.0, kp=2.0, ki=0.3),
                     UMConfig(alpha=0.3, beta=-0.5, gamma=0.0),
                     AdamConfig(step_size=0.1)):
            config = LoopConfig(scheme=Scheme.ALTERNATING, max_steps=500,
                                dual_optimizer=dual, primal_optimizer=gd(0.05))
            traj = run_alternating(problem, [5.0], DualVector.zeros(1, 0), config)
            assert all(rec.lam[0] >= 0.0 for rec in traj.steps)

    def test_constraint_evaluations_once_per_iteration(self):
        problem = one_sided_line()
        config = LoopConfig(scheme=Scheme.ALTERNATING, max_steps=137,
                            dual_optimizer=GAConfig(step_size=0.01),
                            primal_optimizer=gd(0.01), record_every=10)
        traj = run_alternating(problem, [0.0], DualVector.zeros(1, 0), config)
        # one evaluation per iteration plus the terminal record
        assert traj.counters["ineq"] == 137 + 1
        assert traj.counters["eq"] == 137 + 1
        assert traj.counters["objective"] == 137 + 1
        assert traj.counters["jacobian"] == 137
        assert traj.counters["objective_grad"] == 137

    def test_dual_restarts_zero_satisfied_constraints(self):
        problem = one_sided_line()
        config = LoopConfig(scheme=Scheme.ALTERNATING, max_steps=300,
                            dual_optimizer=GAConfig(step_size=0.05),
                            primal_optimizer=gd(0.05), dual_restarts=True)
        traj = run_alternating(problem, [0.0], DualVector.zeros(1, 0), config)
        # a restart fires after the dual update, so any record following a
        # strictly satisfied constraint carries a zeroed multiplier
        fired = 0
        for prev, cur in zip(traj.steps, traj.steps[1:]):
            if prev.g[0] < 0.0 and cur.t == prev.t + 1:
                assert cur.lam[0] == 0.0
                fired += 1
        assert fired > 0

    def test_records_strictly_increasing_and_terminal_state(self):
        problem = unconstrained_norm_square()
        config = LoopConfig(scheme=Scheme.ALTERNATING, max_steps=25,
                            dual_optimizer=GAConfig(step_size=0.1),
                            primal_optimizer=gd(0.1), record_every=7)
        traj = run_alternating(problem, np.ones(3), DualVector.zeros(0, 0), config)
        ts = [rec.t for rec in traj.steps]
        assert ts == [0, 7, 14, 21, 25]

    def test_non_finite_terminates_with_flagged_record(self):
        problem = unconstrained_norm_square(dim=1)
        config = LoopConfig(scheme=Scheme.ALTERNATING, max_steps=500,
                            dual_optimizer=GAConfig(step_size=0.1),
                            primal_optimizer=gd(1e6))  # wildly unstable
        traj = run_alternating(problem, [1.0], DualVector.zeros(0, 0), config)
        assert traj.terminated_reason is TerminationReason.NON_FINITE
        assert traj.steps[-1].t <= 500

    def test_tolerance_stop(self):
        problem = one_sided_line()
        config = LoopConfig(scheme=Scheme.ALTERNATING, max_steps=50000,
                            dual_optimizer=NuPIConfig(nu=0.0, kp=1.0, ki=0.05),
                            primal_optimizer=gd(0.05), stop_tolerance=1e-9)
        traj = run_alternating(problem, [0.0], DualVector.zeros(1, 0), config)
        assert traj.terminated_reason is TerminationReason.TOLERANCE
        assert traj.final.t < 50000

    def test_input_validation(self):
        problem = one_sided_line()
        config = LoopConfig(scheme=Scheme.ALTERNATING, max_steps=5,
                            dual_optimizer=GAConfig(step_size=0.1),
                            primal_optimizer=gd(0.1))
        with pytest.raises(ConfigurationError):
            run_alternating(problem, [np.nan], DualVector.zeros(1, 0), config)
        with pytest.raises(ConfigurationError):
            run_alternating(problem, [0.0], DualVector([-1.0], []), config)
        with pytest.raises(ConfigurationError):
            LoopConfig(scheme=Scheme.ALTERNATING, max_steps=0,
                       dual_optimizer=GAConfig(step_size=0.1), primal_optimizer=gd(0.1))
        for step in (np.nan, np.inf, 0.0):
            with pytest.raises(ConfigurationError, match="finite and positive"):
                gd(step)

    def test_wrong_jacobian_shape_rejected(self):
        problem = dataclasses.replace(one_sided_line(),
                                      eval_constraint_jacobian=lambda x: np.array([-1.0]))
        config = LoopConfig(scheme=Scheme.ALTERNATING, max_steps=5,
                            dual_optimizer=GAConfig(step_size=0.1), primal_optimizer=gd(0.1))
        with pytest.raises(ConfigurationError, match="Jacobian"):
            run(problem, [0.0], DualVector.zeros(1, 0), config)
        with pytest.raises(ConfigurationError, match="Jacobian"):
            validate_gradients(problem, num_points=1, seed=0)

    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("dual", [GAConfig(step_size=0.05),
                                      NuPIConfig(nu=0.3, kp=1.0, ki=0.05),
                                      UMConfig(alpha=0.05, beta=0.5, gamma=1.0),
                                      AdamConfig(step_size=0.05)],
                             ids=["ga", "nupi", "um", "adam"])
    def test_record_lagrangian_is_cores(self, scheme, dual):
        problem = two_sided_plane()
        config = LoopConfig(scheme=scheme, max_steps=300, dual_optimizer=dual,
                            primal_optimizer=gd(0.05), dual_restarts=True)
        traj = run(problem, [0.0, 0.0], DualVector.zeros(2, 1), config)
        assert traj.terminated_reason is TerminationReason.MAX_STEPS
        assert any(rec.lam[0] > 0.0 for rec in traj.steps)
        for rec in traj.steps:
            expected = evaluate_lagrangian(problem, rec.x, DualVector(rec.lam, rec.mu))
            assert rec.lagrangian == expected


_FINITE = st.floats(-1e6, 1e6, allow_nan=False)


@given(dim=st.integers(1, 5), steps=st.integers(1, 30), eta=st.floats(1e-4, 1.0),
       data=st.data())
def test_primal_adam_step_is_dual_increment_negated(dim, steps, eta, data):
    vectors = st.lists(_FINITE, min_size=dim, max_size=dim).map(np.array)
    x = data.draw(vectors)
    primal = _PrimalOptimizer(PrimalOptimizerConfig(kind=PrimalKind.ADAM, step_size=eta), dim)
    dual = init_adam(np.zeros(dim))
    for _ in range(steps):
        grad = data.draw(vectors)
        # from theta = 0 the dual step's theta is its increment
        dual = adam_dual_step(dual, AdamConfig(step_size=eta), grad)
        x_next = primal.step(x, grad)
        np.testing.assert_array_equal(x_next, x - dual.theta)
        x, dual = x_next, dataclasses.replace(dual, theta=np.zeros(dim))


class TestTrajectoryCsv:
    def test_round_trip_lossless(self, tmp_path):
        problem = one_sided_line()
        config = LoopConfig(scheme=Scheme.ALTERNATING, max_steps=60,
                            dual_optimizer=NuPIConfig(nu=0.3, kp=0.7, ki=0.03),
                            primal_optimizer=gd(0.02), record_every=3)
        traj = run_alternating(problem, [0.2], DualVector.zeros(1, 0), config)
        path = tmp_path / "trajectory.csv"
        write_trajectory_csv(traj, path)
        table = read_trajectory_csv(path)
        assert table.terminated_reason == traj.terminated_reason.value
        for i, rec in enumerate(traj.steps):
            assert table.t[i] == rec.t
            assert table.f[i] == rec.f
            assert table.lagrangian[i] == rec.lagrangian
            assert table.linf_g[i] == np.max(np.abs(rec.g))
            np.testing.assert_array_equal(table.lam[i], rec.lam)
            np.testing.assert_array_equal(table.x[i], rec.x)

    def test_header_documents_columns(self, tmp_path):
        problem = bilinear_game()
        config = LoopConfig(scheme=Scheme.ALTERNATING, max_steps=4,
                            dual_optimizer=GAConfig(step_size=0.1),
                            primal_optimizer=gd(0.1))
        traj = run_alternating(problem, [1.0], DualVector([], [0.0]), config)
        path = tmp_path / "t.csv"
        write_trajectory_csv(traj, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[2].split(",")[:5] == ["t", "f", "linf_g", "linf_h", "lagrangian"]
        assert "mu_0" in lines[2] and "x_0" in lines[2]
