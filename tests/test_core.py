"""Tests for the problem abstraction, Lagrangian evaluation, and projection."""

import dataclasses
import warnings

import numpy as np
import pytest

from numax import (
    ConfigurationError,
    ConstrainedProblem,
    LoopConfig,
    NuPIConfig,
    PrimalKind,
    PrimalOptimizerConfig,
    Scheme,
    evaluate_lagrangian,
    lagrangian_primal_gradient,
    project_theta,
    run,
    validate_gradients,
    write_trajectory_csv,
)
from numax.core import central_difference_jacobian, lagrangian_value


def unconstrained_square():
    return ConstrainedProblem.from_values(
        1, 0, 0, lambda x: (float(x[0] ** 2), np.zeros(0)),
        lambda x: (2.0 * x, np.zeros((1, 0))))


def single_ineq_line():
    # f = 0, g(x) = x - 1
    return ConstrainedProblem.from_values(
        1, 1, 0, lambda x: (0.0, np.array([x[0] - 1.0])),
        lambda x: (np.zeros(1), np.array([[1.0]])))


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
    return ConstrainedProblem.from_values(
        dim, m, n,
        lambda x: (0.5 * float(x @ Q @ x) + float(q @ x),
                   np.concatenate([G @ x - gb, E @ x - eb])),
        lambda x: (Q @ x + q, jac))


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

    def test_empty_block_adds_nothing(self):
        # f = -0.0 stays -0.0 when a block is empty, for one point or a stack
        empty, empties = np.zeros(0), np.zeros((2, 0))
        assert np.signbit(lagrangian_value(-0.0, empty, empty, empty, empty))
        value = lagrangian_value(np.array([-0.0, 1.0]), empties, empties, empties, empties)
        assert value.tolist() == [-0.0, 1.0] and np.signbit(value[0])

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
        # the composed path of `values` stacks the blocks g and h
        problem = dataclasses.replace(quadratic_with_linear_constraints(),
                                      eval_values=None, eval_primal_gradient=None)
        x = np.arange(4.0)
        stacked = np.concatenate([problem.eval_ineq(x), problem.eval_eq(x)])
        np.testing.assert_array_equal(problem.values(x)[1], stacked)
        assert single_ineq_line().values(np.array([3.0]))[1].tolist() == [2.0]

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
            problem.values(np.zeros(1))


@pytest.mark.parametrize("dims, message", [
    ((0, 0, 1), "dim_primal must be positive"),
    ((-2, 1, 0), "dim_primal must be positive"),
    ((1, -1, 0), "constraint counts must be non-negative"),
    ((1, 0, -1), "constraint counts must be non-negative"),
])
def test_dimensions_checked(dims, message):
    with pytest.raises(ConfigurationError, match=f"^{message}$"):
        ConstrainedProblem.from_values(*dims, lambda x: (0.0, x), lambda x: (x, x))


def _on_line(equality):
    """min |x|^2 / 2 s.t. h(x) = x0 - 1 = 0 through `from_values`, with h
    as `equality(x)` returns it."""
    return ConstrainedProblem.from_values(
        2, 0, 1, lambda x: (0.5 * float(x @ x), equality(x)),
        lambda x: (x.copy(), np.array([[1.0], [0.0]])))


_ON_LINE_RUN = LoopConfig(scheme=Scheme.ALTERNATING, max_steps=200,
                          dual_optimizer=NuPIConfig(nu=0.0, kp=1.0, ki=0.1),
                          primal_optimizer=PrimalOptimizerConfig(
                              kind=PrimalKind.GRADIENT_DESCENT, step_size=0.1))


class TestFromValues:
    @pytest.mark.parametrize("scalar", [lambda x: x[0] - 1.0, lambda x: float(x[0] - 1.0)],
                             ids=["numpy_scalar", "python_float"])
    def test_scalar_constraint_runs_like_a_vector(self, tmp_path, scalar):
        problems = (_on_line(scalar), _on_line(lambda x: np.array([x[0] - 1.0])))
        x = np.array([3.0, -2.0])
        for problem in problems:
            assert problem.eval_eq(x).tolist() == [2.0]
            assert problem.eval_ineq(x).shape == (0,)
            assert evaluate_lagrangian(problem, x, [0.5]) == 7.5
        for name, problem in zip(("scalar", "vector"), problems):
            write_trajectory_csv(run(problem, x, np.zeros(1), _ON_LINE_RUN), tmp_path / name)
        assert (tmp_path / "scalar").read_bytes() == (tmp_path / "vector").read_bytes()

    def test_wrong_length_constraints_rejected(self):
        problem = _on_line(lambda x: np.array([x[0] - 1.0, 0.0]))
        x, message = np.zeros(2), r"c\(x\) must have shape \(1,\), got \(2,\)"
        for evaluate in (problem.eval_eq, problem.values,
                         lambda x: run(problem, x, np.zeros(1), _ON_LINE_RUN)):
            with pytest.raises(ConfigurationError, match=message):
                evaluate(x)

    def test_unconstrained_gradient_is_the_objective_gradient(self):
        # grad f + Jc theta would turn a -0.0 entry into +0.0, which the
        # composed path keeps, so the start check would refuse the problem
        problem = ConstrainedProblem.from_values(
            2, 0, 0, lambda x: (0.5 * float(x @ x), np.zeros(0)),
            lambda x: (x.copy(), np.zeros((2, 0))))
        x = np.array([-0.0, 1.0])
        assert problem.primal_gradient(x, np.zeros(0)).tobytes() == x.tobytes()
        problem.check_fused(x, np.zeros(0))


class TestPrimalGradient:
    def test_no_constraints_gives_objective_gradient(self):
        problem = unconstrained_square()
        grad = lagrangian_primal_gradient(problem, [3.0], np.zeros(0))
        np.testing.assert_array_equal(grad, [6.0])

    def test_single_equality_gives_scaled_constraint_gradient(self):
        a = np.array([2.0, -1.0, 0.5])
        problem = ConstrainedProblem.from_values(
            3, 0, 1, lambda x: (0.0, np.array([a @ x - 1.0])),
            lambda x: (np.zeros(3), a.reshape(3, 1)))
        grad = lagrangian_primal_gradient(problem, np.zeros(3), [2.5])
        np.testing.assert_allclose(grad, 2.5 * a)

    def test_matches_finite_differences(self):
        problem = quadratic_with_linear_constraints(seed=5)
        rng = np.random.default_rng(11)
        theta = np.concatenate([np.abs(rng.standard_normal(2)), rng.standard_normal(2)])
        for _ in range(5):
            x = rng.standard_normal(4)
            analytic = lagrangian_primal_gradient(problem, x, theta)
            fd = central_difference_jacobian(
                lambda xx: evaluate_lagrangian(problem, xx, theta), x, 1)[:, 0]
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

    @pytest.mark.parametrize("kind", ["svm", "benchmark2d"])
    def test_one_pass_over_values_per_point(self, kind):
        # f and c are differenced together: 1 + 2 dim_primal calls a point
        from numax import build_2d_benchmark, build_svm_problem, iris_csv_path, load_dataset_csv
        built = (build_svm_problem(load_dataset_csv(iris_csv_path())) if kind == "svm"
                 else build_2d_benchmark())
        calls = []

        def values(x):
            calls.append(None)
            return built.eval_values(x)

        problem = ConstrainedProblem.from_values(
            built.dim_primal, built.num_ineq, built.num_eq, values,
            lambda x: (built.eval_objective_grad(x), built.eval_constraint_jacobian(x)))
        assert validate_gradients(problem, num_points=4, seed=0).passed
        assert len(calls) == 4 * (1 + 2 * built.dim_primal)

    def test_wrong_gradient_fails(self):
        problem = ConstrainedProblem.from_values(
            2, 0, 0, lambda x: (float(x @ x), np.zeros(0)),
            lambda x: (2.0 * x + 1.0, np.zeros((2, 0))))  # deliberately off by +1
        report = validate_gradients(problem, num_points=5, seed=1)
        assert not report.passed

    def test_non_finite_sample_recorded(self):
        problem = ConstrainedProblem.from_values(
            1, 0, 0, lambda x: (float("nan"), np.zeros(0)),
            lambda x: (np.zeros(1), np.zeros((1, 0))))
        report = validate_gradients(problem, num_points=3, seed=0)
        assert not report.passed
        assert any("non-finite" in msg for msg in report.failures)

    @pytest.mark.parametrize("bad_grad, bad_jac", [(True, True), (True, False), (False, True)])
    def test_non_finite_analytic_derivative_fails(self, bad_grad, bad_jac):
        # f = x^2 / 2 and g = x - 1 are finite everywhere, so only the analytic
        # gradient or Jacobian can be NaN; max(0.0, nan) once hid them as 0.0
        problem = ConstrainedProblem.from_values(
            1, 1, 0, lambda x: (float(0.5 * x[0] * x[0]), x - 1.0),
            lambda x: (np.array([np.nan]) if bad_grad else x.copy(),
                       np.array([[np.nan if bad_jac else 1.0]])))
        report = validate_gradients(problem, num_points=3, seed=0)
        assert not report.passed
        assert "FAIL" in report.summary()
        what = "analytic gradient" if bad_grad else "constraint Jacobian"
        assert len(report.failures) == 3
        assert all(f"non-finite {what}" in msg for msg in report.failures)

    @pytest.mark.parametrize("where, message", [
        ("f", "non-finite finite-difference gradient at point {k}, x={x!r}"),
        ("c", "non-finite constraint value near point {k}, x={x!r}"),
    ], ids=["objective", "constraint"])
    def test_non_finite_finite_difference_fails(self, where, message):
        # f = |x|^2 / 2 and h = x0 - 1, with f or h NaN everywhere but at the
        # sampled points: the analytic values pass and only the differences,
        # taken a step away, are non-finite.
        rng = np.random.default_rng(4)
        samples = [rng.standard_normal(2) for _ in range(3)]
        sampled = {x.tobytes() for x in samples}

        def values(x):
            off = 0.0 if x.tobytes() in sampled else np.nan
            return (0.5 * float(x @ x) + (off if where == "f" else 0.0),
                    np.array([x[0] - 1.0 + (off if where == "c" else 0.0)]))

        problem = ConstrainedProblem.from_values(
            2, 0, 1, values, lambda x: (x.copy(), np.array([[1.0], [0.0]])))
        report = validate_gradients(problem, num_points=3, seed=4)
        assert report.failures == [message.format(k=k, x=x) for k, x in enumerate(samples)]
        assert not report.passed and report.max_rel_error_jacobian == 0.0
        assert (report.max_rel_error_objective == 0.0) == (where == "f")
