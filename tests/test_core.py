"""Tests for the problem abstraction, Lagrangian evaluation, and projection."""

import warnings

import numpy as np
import pytest

from numax import (
    ConfigurationError,
    ConstrainedProblem,
    evaluate_lagrangian,
    lagrangian_primal_gradient,
    project_theta,
    validate_gradients,
)
from numax.core import central_difference_gradient


def unconstrained_square():
    return ConstrainedProblem(
        dim_primal=1, num_ineq=0, num_eq=0,
        eval_objective=lambda x: float(x[0] ** 2),
        eval_objective_grad=lambda x: 2.0 * x,
        eval_ineq=lambda x: np.zeros(0),
        eval_eq=lambda x: np.zeros(0),
        eval_constraint_jacobian=lambda x: np.zeros((1, 0)),
    )


def single_ineq_line():
    # f = 0, g(x) = x - 1
    return ConstrainedProblem(
        dim_primal=1, num_ineq=1, num_eq=0,
        eval_objective=lambda x: 0.0,
        eval_objective_grad=lambda x: np.zeros(1),
        eval_ineq=lambda x: np.array([x[0] - 1.0]),
        eval_eq=lambda x: np.zeros(0),
        eval_constraint_jacobian=lambda x: np.array([[1.0]]),
    )


def quadratic_with_linear_constraints(seed=0, dim=4, m=2, n=2):
    rng = np.random.default_rng(seed)
    Q = rng.standard_normal((dim, dim))
    Q = Q @ Q.T
    q = rng.standard_normal(dim)
    G = rng.standard_normal((m, dim))
    gb = rng.standard_normal(m)
    E = rng.standard_normal((n, dim))
    eb = rng.standard_normal(n)
    jac = np.hstack([G.T, E.T])
    return ConstrainedProblem(
        dim_primal=dim, num_ineq=m, num_eq=n,
        eval_objective=lambda x: 0.5 * float(x @ Q @ x) + float(q @ x),
        eval_objective_grad=lambda x: Q @ x + q,
        eval_ineq=lambda x: G @ x - gb,
        eval_eq=lambda x: E @ x - eb,
        eval_constraint_jacobian=lambda x: jac,
    )


class TestEvaluateLagrangian:
    def test_no_constraints_reduces_to_objective(self):
        problem = unconstrained_square()
        assert evaluate_lagrangian(problem, [2.0], np.zeros(0)) == 4.0

    def test_linear_term_only(self):
        problem = single_ineq_line()
        value = evaluate_lagrangian(problem, [2.0], [3.0])
        assert value == 3.0 * (2.0 - 1.0)

    def test_svm_at_origin_sums_unit_violations(self):
        from numax import build_svm_problem, iris_csv_path, load_dataset_csv, train_validation_split
        data = load_dataset_csv(iris_csv_path())
        train, _ = train_validation_split(data, seed=0)
        problem = build_svm_problem(train)
        value = evaluate_lagrangian(problem, np.zeros(problem.dim_primal),
                                    np.ones(train.num_points))
        assert value == pytest.approx(70.0, abs=1e-12)

    def test_dimension_mismatch_is_fatal(self):
        problem = single_ineq_line()
        with pytest.raises(ConfigurationError):
            evaluate_lagrangian(problem, [1.0, 2.0], [1.0])
        with pytest.raises(ConfigurationError, match="theta"):
            evaluate_lagrangian(problem, [1.0], [1.0, 2.0])

    def test_affine_in_duals(self):
        problem = quadratic_with_linear_constraints()
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.standard_normal(4)
            th1 = np.concatenate([np.abs(rng.standard_normal(2)), rng.standard_normal(2)])
            th2 = np.concatenate([np.abs(rng.standard_normal(2)), rng.standard_normal(2)])
            a = rng.uniform()
            mix = a * th1 + (1 - a) * th2
            lhs = evaluate_lagrangian(problem, x, mix)
            rhs = (a * evaluate_lagrangian(problem, x, th1)
                   + (1 - a) * evaluate_lagrangian(problem, x, th2))
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestConstraints:
    def test_stacks_inequalities_before_equalities(self):
        problem = quadratic_with_linear_constraints()
        x = np.arange(4.0)
        stacked = np.concatenate([problem.eval_ineq(x), problem.eval_eq(x)])
        np.testing.assert_array_equal(problem.constraints(x), stacked)
        assert single_ineq_line().constraints(np.array([3.0])).tolist() == [2.0]

    @pytest.mark.parametrize("num_ineq, num_eq, ineq, eq, name", [
        (0, 1, np.zeros(1), np.ones(1), "g"),
        (1, 0, np.ones(1), np.zeros(2), "h"),
    ])
    def test_empty_block_still_checked(self, num_ineq, num_eq, ineq, eq, name):
        # A single-block problem returns its one block as is, but the empty
        # block's callable still runs and must still have shape (0,).
        problem = ConstrainedProblem(
            dim_primal=1, num_ineq=num_ineq, num_eq=num_eq,
            eval_objective=lambda x: 0.0,
            eval_objective_grad=lambda x: np.zeros(1),
            eval_ineq=lambda x: ineq,
            eval_eq=lambda x: eq,
            eval_constraint_jacobian=lambda x: np.zeros((1, 1)),
        )
        with pytest.raises(ConfigurationError, match=rf"{name}\(x\) must have shape \(0,\)"):
            problem.constraints(np.zeros(1))


class TestPrimalGradient:
    def test_no_constraints_gives_objective_gradient(self):
        problem = unconstrained_square()
        grad = lagrangian_primal_gradient(problem, [3.0], np.zeros(0))
        np.testing.assert_array_equal(grad, [6.0])

    def test_single_equality_gives_scaled_constraint_gradient(self):
        a = np.array([2.0, -1.0, 0.5])
        problem = ConstrainedProblem(
            dim_primal=3, num_ineq=0, num_eq=1,
            eval_objective=lambda x: 0.0,
            eval_objective_grad=lambda x: np.zeros(3),
            eval_ineq=lambda x: np.zeros(0),
            eval_eq=lambda x: np.array([a @ x - 1.0]),
            eval_constraint_jacobian=lambda x: a.reshape(3, 1),
        )
        grad = lagrangian_primal_gradient(problem, np.zeros(3), [2.5])
        np.testing.assert_allclose(grad, 2.5 * a)

    def test_matches_finite_differences(self):
        problem = quadratic_with_linear_constraints(seed=5)
        rng = np.random.default_rng(11)
        theta = np.concatenate([np.abs(rng.standard_normal(2)), rng.standard_normal(2)])
        for _ in range(5):
            x = rng.standard_normal(4)
            analytic = lagrangian_primal_gradient(problem, x, theta)
            fd = central_difference_gradient(
                lambda xx: evaluate_lagrangian(problem, xx, theta), x)
            np.testing.assert_allclose(analytic, fd, rtol=1e-5, atol=1e-7)


class TestProjectDuals:
    def test_componentwise_clamp(self):
        out = project_theta(np.array([-1.0, 2.0, -5.0]), 2)
        np.testing.assert_array_equal(out, [0.0, 2.0, -5.0])

    def test_fixed_point(self):
        out = project_theta(np.array([0.0, 0.0]), 2)
        np.testing.assert_array_equal(out, [0.0, 0.0])

    def test_negative_zero_normalized(self):
        out = project_theta(np.array([-0.0]), 1)
        assert out[0] == 0.0
        assert not np.signbit(out[0])

    def test_idempotent_bit_exact(self):
        rng = np.random.default_rng(9)
        theta = rng.standard_normal(53)  # 50 inequality, 3 equality multipliers
        once = project_theta(theta, 50)
        twice = project_theta(once, 50)
        assert np.array_equal(once, twice)
        assert np.array_equal(np.signbit(once), np.signbit(twice))


    def test_list_input_becomes_a_new_float_vector(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for theta, num_ineq, expected in (([-1.0, 2.0], 1, [0.0, 2.0]),
                                              ([-1.0, 2.0], 0, [-1.0, 2.0])):
                out = project_theta(theta, num_ineq)
                assert isinstance(out, np.ndarray) and out.dtype == np.float64
                np.testing.assert_array_equal(out, expected)
                assert theta == [-1.0, 2.0]

    def test_returns_a_new_array(self):
        theta = np.array([-1.0, 2.0])
        for num_ineq in (0, 1, 2):
            out = project_theta(theta, num_ineq)
            assert not np.shares_memory(out, theta)
        np.testing.assert_array_equal(theta, [-1.0, 2.0])

    @pytest.mark.parametrize("theta, num_ineq", [
        (np.array([-1.0]), 3),
        (np.array([-1.0, 2.0]), -1),
        (np.array([-1.0, 2.0]), 1.0),
        (np.zeros((2, 2)), 1),
    ])
    def test_num_ineq_outside_vector_rejected(self, theta, num_ineq):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError):
                project_theta(theta, num_ineq)


class TestValidateGradients:
    def test_svm_problem_passes(self):
        from numax import build_svm_problem, iris_csv_path, load_dataset_csv, train_validation_split
        data = load_dataset_csv(iris_csv_path())
        train, _ = train_validation_split(data, seed=0)
        report = validate_gradients(build_svm_problem(train), num_points=10, seed=0)
        assert report.passed, report.summary()

    def test_2d_benchmark_passes(self):
        from numax import build_2d_benchmark
        report = validate_gradients(build_2d_benchmark(), num_points=10, seed=0)
        assert report.passed, report.summary()

    def test_wrong_gradient_fails(self):
        problem = ConstrainedProblem(
            dim_primal=2, num_ineq=0, num_eq=0,
            eval_objective=lambda x: float(x @ x),
            eval_objective_grad=lambda x: 2.0 * x + 1.0,  # deliberately off by +1
            eval_ineq=lambda x: np.zeros(0),
            eval_eq=lambda x: np.zeros(0),
            eval_constraint_jacobian=lambda x: np.zeros((2, 0)),
        )
        report = validate_gradients(problem, num_points=5, seed=1)
        assert not report.passed

    def test_non_finite_sample_recorded(self):
        problem = ConstrainedProblem(
            dim_primal=1, num_ineq=0, num_eq=0,
            eval_objective=lambda x: float("nan"),
            eval_objective_grad=lambda x: np.zeros(1),
            eval_ineq=lambda x: np.zeros(0),
            eval_eq=lambda x: np.zeros(0),
            eval_constraint_jacobian=lambda x: np.zeros((1, 0)),
        )
        report = validate_gradients(problem, num_points=3, seed=0)
        assert not report.passed
        assert any("non-finite" in msg for msg in report.failures)

    @pytest.mark.parametrize("bad_grad, bad_jac", [(True, True), (True, False), (False, True)])
    def test_non_finite_analytic_derivative_fails(self, bad_grad, bad_jac):
        # f = x^2 / 2 and g = x - 1 are finite everywhere, so only the analytic
        # gradient or Jacobian can be NaN; max(0.0, nan) once hid them as 0.0
        problem = ConstrainedProblem(
            dim_primal=1, num_ineq=1, num_eq=0,
            eval_objective=lambda x: float(0.5 * x[0] * x[0]),
            eval_objective_grad=lambda x: np.array([np.nan]) if bad_grad else x.copy(),
            eval_ineq=lambda x: x - 1.0,
            eval_eq=lambda x: np.zeros(0),
            eval_constraint_jacobian=lambda x: np.array([[np.nan if bad_jac else 1.0]]),
        )
        report = validate_gradients(problem, num_points=3, seed=0)
        assert not report.passed
        assert "FAIL" in report.summary()
        what = "analytic gradient" if bad_grad else "constraint Jacobian"
        assert len(report.failures) == 3
        assert all(f"non-finite {what}" in msg for msg in report.failures)
